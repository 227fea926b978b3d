"""CAM's CPU-side management threads.

A persistent CPU poller watches the doorbell; when the GPU rings, the
manager reads the LBA batch, groups the requests per owning reactor,
walks each group onto its SSDs' SPDK queue pairs (charging the reactor's
per-request CPU cost), waits for every completion, and signals the
batch's ``done`` event.  The paper's four GPU<->CPU sync regions are
modelled by their cost alone: the doorbell write is
``CAMConfig.doorbell_time`` on the GPU, the poller's notice is
``poll_interval / 2 + batch_setup_time``, and the completion flag is
``done``.

The number of *active* reactors is set by the manager's one core-sizing
loop (:mod:`repro.core.elastic`); inactive reactors' SSDs are
re-assigned to active ones, which is how "one thread controls multiple
NVMes" (Fig. 12) happens.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from heapq import heappush
from typing import Generator, Optional

import numpy as np

from repro.checks import as_integer, as_integer_array
from repro.config import CAMConfig
from repro.errors import (
    APIUsageError,
    ConfigurationError,
    DeviceError,
    DeviceOfflineError,
    DeviceTimeoutError,
    MediaError,
    RetryExhaustedError,
)
from repro.hw.platform import Platform
from repro.obs.causal import mint_context
from repro.sim.core import NORMAL, Event
from repro.sim.resources import Store
from repro.sim.stats import Counter, LatencyStat
from repro.spdk.driver import SpdkDriver


@dataclass
class BatchRequest:
    """One rung batch travelling from the doorbell to the manager."""

    lbas: np.ndarray
    granularity: int
    is_write: bool
    dest: object = None  # pinned GPU buffer (or None for timing runs)
    payloads: Optional[list] = None  # write data per request
    done: Event = None  # signalled when the whole batch completed
    submit_time: float = 0.0
    trace_span: object = None  # open "batch" span when tracing is enabled
    #: originating :class:`~repro.obs.causal.RequestContext` (or None);
    #: the batch span flow-links back to it via a ``links`` tag
    context: object = None
    #: True when the manager minted the context itself at ``ring`` (the
    #: raw entry point) and therefore owns finishing it
    context_owned: bool = False
    #: ``(ssd_indexes, local_lbas)`` of every request, set by
    #: :meth:`CamManager.check`
    located: tuple = field(default=None, init=False, repr=False)

    @property
    def request_count(self) -> int:
        return len(self.lbas)

    @property
    def total_bytes(self) -> int:
        return self.request_count * self.granularity


def check_lbas(lbas) -> np.ndarray:
    """The rule for a batch's LBAs: a non-empty 1-D array of integer
    values (:func:`~repro.checks.as_integer_array`).

    Returns ``lbas`` as an array, not yet cast, and raises
    :class:`~repro.errors.APIUsageError` for anything else.
    :meth:`CamManager.check` calls it before the cast, since a cast to
    ``int64`` would quietly turn LBA 1.5 into 1.
    """
    array = as_integer_array(lbas)
    if array is None or not array.size:
        raise APIUsageError("LBAs must be a non-empty 1-D integer array")
    return array


def check_granularity(granularity) -> None:
    """The rule for a batch's request size: a positive integer number of
    bytes (:func:`~repro.checks.as_integer`), or
    :class:`~repro.errors.APIUsageError`.  :meth:`CamManager.check` calls
    it, since a zero, negative or fractional size would be counted as
    bytes moved and claimed from admission."""
    size = as_integer(granularity)
    if size is None or size <= 0:
        raise APIUsageError(
            f"granularity must be a positive integer, not {granularity!r}"
        )


class CamManager:
    """The persistent CPU thread(s) managing the SSDs for one GPU."""

    def __init__(
        self,
        platform: Platform,
        config: Optional[CAMConfig] = None,
        num_cores: Optional[int] = None,
        reliability=None,
        admission=None,
        supervise_reactors: bool = False,
    ):
        self.platform = platform
        self.env = platform.env
        self.config = config or platform.config.cam
        #: optional :class:`~repro.reliability.Reliability` bundle; the
        #: driver retries/guards each request, the manager types the
        #: batch-level failure
        self.reliability = reliability
        #: optional :class:`~repro.reliability.AdmissionController`;
        #: :meth:`ring` sheds batches beyond its in-flight bounds with a
        #: typed :class:`~repro.errors.OverloadError`
        self.admission = admission
        max_cores = max(1, -(-platform.num_ssds // 2))  # ceil(N/2)
        self.driver = SpdkDriver(
            platform,
            num_reactors=num_cores or max_cores,
            reliability=reliability,
        )
        #: optional stall/crash supervisor driving reactor failover
        self.supervisor = (
            self.driver.supervise() if supervise_reactors else None
        )
        #: the one core-sizing loop, an ``ElasticController``, if any
        self.controller = None
        self._inbox: Store = Store(self.env)
        self._poller = self.env.process(self._poll_loop())
        self.batches_done = Counter(self.env)
        self.requests_done = Counter(self.env)
        self.bytes_done = Counter(self.env)
        self.batch_io_time = LatencyStat()
        #: io time of the most recent batch (the per-batch core signal)
        self.last_io_time = 0.0
        #: window baseline for :meth:`reactor_busy_fractions` —
        #: (sim time, {reactor_id: busy_seconds}) at the last call
        self._busy_mark = (
            self.env.now,
            {
                reactor.reactor_id: reactor.busy_seconds
                for reactor in self.driver.pool.reactors
            },
        )

    # -- core adjustment ----------------------------------------------------
    @property
    def active_reactors(self) -> int:
        return self.driver.pool.active_count

    def set_active_reactors(self, count: int) -> None:
        """Remap the SSDs over ``count`` cores (checked by
        ``ReactorPool.remap``): a core-sizing decision or a static
        allocation."""
        self.driver.remap(count)

    # -- the doorbell -> completion path ----------------------------------
    def check(self, batch: BatchRequest) -> None:
        """Every batch precondition, or
        :class:`~repro.errors.APIUsageError` before admission.

        The LBAs must pass :func:`check_lbas` and the granularity
        :func:`check_granularity`; a payload list must match the LBA
        count; no request may start at a negative LBA or run past its
        SSD's last block; and a destination buffer must be pinned and
        hold every request.  Stores the LBAs as ``int64`` and their
        location in ``batch.located``.
        """
        lbas = np.asarray(check_lbas(batch.lbas), dtype=np.int64)
        granularity = batch.granularity
        check_granularity(granularity)
        count = len(lbas)
        if batch.payloads is not None and len(batch.payloads) != count:
            raise APIUsageError("payloads must match the LBA array length")
        try:
            located = self.platform.locate_lbas(lbas)
            self.platform.check_extent(located[1], granularity)
        except ConfigurationError as error:
            raise APIUsageError(f"bad batch: {error}") from None
        buffer = batch.dest
        if buffer is not None:
            if not buffer.pinned:
                raise APIUsageError("buffer must be pinned CAM_alloc memory")
            if count * granularity > buffer.size:
                raise APIUsageError(
                    f"batch of {count} x {granularity}B overflows "
                    f"{buffer.size}B buffer"
                )
        batch.lbas = lbas
        batch.located = located

    def ring(self, batch: BatchRequest) -> Event:
        """GPU side: hand a batch to the manager (the doorbell).

        Returns the batch's completion event.  A batch not yet checked
        is put through :meth:`check` first.  With an admission
        controller attached, a batch that would push the manager past
        its in-flight bounds is then shed here, synchronously, with a
        typed :class:`~repro.errors.OverloadError`.
        """
        if batch.located is None:
            self.check(batch)
        if self.admission is not None:
            self.admission.admit(batch.request_count, batch.total_bytes)
        if batch.done is None:
            batch.done = self.env.event()
        batch.submit_time = self.env.now
        tracer = self.env.tracer
        if tracer.enabled:
            context = batch.context
            if context is None:
                # raw ring() is itself an entry point: mint the causal
                # context here so even bare batches get a trace_id
                context = mint_context(tracer, "batch")
                batch.context = context
                batch.context_owned = True
            causal_tags = (
                {
                    "parent": context.root,
                    "trace_id": context.trace_id,
                    "links": [context.trace_id],
                }
                if context is not None else {}
            )
            batch.trace_span = tracer.begin(
                "batch",
                requests=batch.request_count,
                bytes=batch.total_bytes,
                is_write=batch.is_write,
                **causal_tags,
            )
        self._inbox.put(batch)
        return batch.done

    def _poll_loop(self) -> Generator:
        env = self.env
        inbox = self._inbox
        #: the batch whose poll delay just ended.  It starts once the
        #: poller next blocks, so that the next batch's poll timer and
        #: span are created before anything the started batch creates
        polled = None
        while True:
            get = inbox.get()
            if polled is not None and get.callbacks is not None:
                self._start(polled)
                polled = None
            batch = yield get
            # the poller notices the doorbell after (on average) half a
            # poll interval, then marshals the batch arguments
            tracer = env.tracer
            poll_span = (
                tracer.begin("doorbell_poll", parent=batch.trace_span)
                if tracer.enabled
                else None
            )
            delay = env.timeout(
                self.config.poll_interval / 2 + self.config.batch_setup_time
            )
            if polled is not None:
                self._start(polled)
            yield delay
            if poll_span is not None:
                tracer.end(poll_span)
            polled = batch

    def _start(self, batch: BatchRequest) -> None:
        """Start a polled batch.

        Batches proceed concurrently (e.g. a read batch overlapping a
        write-back batch); per-reactor CPU contention still serializes
        the actual submission work.  Every batch, with or without a
        reliability bundle, is a :class:`_BatchRun` record driven by
        heap callbacks.
        """
        try:
            _advance(_BatchRun(self, batch))
        except Exception as error:  # noqa: BLE001 - surfaced below
            # what the batch raised surfaces from env.run, as a dead
            # process's error would; the poller lives on
            Event(self.env).fail(error)

    def _release(self, batch: BatchRequest) -> None:
        if self.admission is not None:
            self.admission.release(batch.request_count, batch.total_bytes)

    def _complete(self, batch: BatchRequest, failures: list) -> None:
        """The batch tail: counters, metrics, spans, ``done``."""
        # one definition of batch I/O time everywhere: doorbell ring to
        # completion, as the GPU observes it (includes the poll delay)
        io_time = self.env.now - batch.submit_time
        self.last_io_time = io_time
        self.batch_io_time.record(io_time)
        self.batches_done.add()
        self.requests_done.add(batch.request_count)
        self.bytes_done.add(batch.total_bytes)
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.batch_done(
                "write" if batch.is_write else "read",
                io_time,
                batch.request_count,
                batch.total_bytes,
                len(failures),
                trace_id=(
                    batch.context.trace_id
                    if batch.context is not None else None
                ),
            )
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                "completion_signal",
                parent=batch.trace_span,
                requests=batch.request_count,
                failures=len(failures),
            )
            if batch.trace_span is not None:
                tracer.end(batch.trace_span, failures=len(failures))
            if batch.context is not None and batch.context_owned:
                batch.context.finish(failures=len(failures))
        if failures:
            batch.done.fail(self._batch_error(batch, failures))
        else:
            batch.done.succeed(io_time)

    def _batch_error(self, batch: BatchRequest, failures) -> DeviceError:
        """Type the batch-level failure from the per-request records.

        ``failures`` is a list of ``(lba, status, attempts, error)``;
        ``error`` is the typed per-request exception when the driver
        raised (watchdog timeouts), else ``None`` for error CQEs.
        """
        prefix = (
            f"{len(failures)} of {batch.request_count} requests failed"
        )
        offline = [
            error
            for (_, _, _, error) in failures
            if isinstance(error, DeviceOfflineError)
        ]
        if offline:
            first = offline[0]
            return DeviceOfflineError(
                f"{prefix}; first: {first}",
                ssd_id=first.ssd_id,
                lba=first.lba,
                attempts=first.attempts,
                timeout=first.timeout,
            )
        timeouts = [
            error
            for (_, _, _, error) in failures
            if isinstance(error, DeviceTimeoutError)
        ]
        if timeouts:
            first = timeouts[0]
            return DeviceTimeoutError(
                f"{prefix}; first: {first}",
                ssd_id=first.ssd_id,
                lba=first.lba,
                attempts=first.attempts,
                timeout=first.timeout,
            )
        lba, status, attempts, _ = failures[0]
        cls = MediaError if self.reliability is None else (
            RetryExhaustedError
        )
        return cls(
            f"{prefix}; first: lba {lba} status {status:#x}",
            lba=lba,
            status=status,
            attempts=attempts,
        )

    def _slice_limit(self) -> Optional[int]:
        """Requests per slice, or ``None`` for the whole batch at once.

        In degraded mode (admission controller past its high-water mark,
        or an open circuit breaker) a batch is processed in slices of
        ``admission.batch_limit()`` requests so a struggling backend
        works through smaller units.
        """
        if self.admission is None:
            return None
        return self.admission.batch_limit()

    def _group(self, batch: BatchRequest, start: int, stop: int) -> list:
        """Split ``batch[start:stop]`` per owning reactor, keeping batch
        order inside each group, as lists of ``(index, ssd_index,
        local_lba, payload)`` in order of each reactor's first request."""
        ssd_indexes, local_lbas = batch.located
        handles = self.driver._handles
        groups: dict = {}
        for index, payload in zip(
            range(start, stop), self._payloads(batch, start, stop)
        ):
            ssd_index = ssd_indexes[index]
            reactor = handles[ssd_index].reactor
            items = groups.get(reactor)
            if items is None:
                items = groups[reactor] = []
            items.append((index, ssd_index, local_lbas[index], payload))
        return list(groups.values())

    def _payloads(self, batch: BatchRequest, start: int, stop: int) -> list:
        """The write data of requests ``start..stop`` (None for reads)."""
        if batch.payloads is not None:
            return batch.payloads[start:stop]
        if batch.is_write and batch.dest is not None:
            # write-back: the data comes from the pinned GPU buffer
            granularity = batch.granularity
            return [
                batch.dest.read_bytes(index * granularity, granularity)
                for index in range(start, stop)
            ]
        return [None] * (stop - start)

    def _failures(self, batch: BatchRequest, results) -> list:
        """The ``(lba, status, attempts, error)`` records of the failed
        requests among ``(index, outcome)`` results, in result order."""
        failures = []
        for index, outcome in results:
            if isinstance(outcome, DeviceError):
                # the driver raised a typed error for this request
                # (watchdog timeout, offline device, dead reactor)
                failures.append(
                    (
                        int(batch.lbas[index]),
                        getattr(outcome, "status", None) or 0,
                        getattr(outcome, "attempts", 1),
                        outcome,
                    )
                )
            elif not outcome.ok:
                failures.append(
                    (
                        int(batch.lbas[index]),
                        outcome.status,
                        outcome.attempts,
                        None,
                    )
                )
        return failures

    def achieved_throughput(self) -> float:
        """Bytes/second over the observation window."""
        return self.bytes_done.rate()

    def reactor_busy_fractions(self) -> dict:
        """Per-reactor busy fraction since the previous call.

        Returns ``{reactor_id: fraction}`` over the window ending now and
        starting at the last call (or construction).  This is the
        compute/IO-ratio signal the paper's dynamic core adjustment rule
        consumes — a window of near-1.0 fractions on every active reactor
        means the manager is CPU-bound and wants more cores; near-0.0
        means cores can be released.  Derived purely from
        :attr:`Reactor.busy_seconds` deltas, so calling it never touches
        the event heap.  A zero-length window reports 0.0 everywhere.
        """
        now = self.env.now
        last_time, last_busy = self._busy_mark
        window = now - last_time
        fractions = {}
        marks = {}
        for reactor in self.driver.pool.reactors:
            rid = reactor.reactor_id
            busy = reactor.busy_seconds
            marks[rid] = busy
            delta = busy - last_busy.get(rid, 0.0)
            fractions[rid] = (
                min(1.0, delta / window) if window > 0 else 0.0
            )
        self._busy_mark = (now, marks)
        return fractions


# -- the batch record --------------------------------------------------------

_by_index = operator.itemgetter(0)


class _BatchRun(Event):
    """One coalesced batch in flight, advanced by heap callbacks.

    It starts in the poller.  Each admission slice is grouped per
    reactor and each group walked by
    :meth:`~repro.spdk.driver.SpdkDriver.walk`, fail-fast or reliable
    as the driver is.  A slice with one group goes on in the callback
    where its walk ends.  With several groups each walk ends with a
    same-instant hop, and the last hop puts this record on the heap as
    the join, so the slice's tail runs after the other events of that
    instant that were already queued.  Walks hand their outcomes over
    when they end; the record never references a walk.
    ``docs/PERFORMANCE.md`` §2 lists the events this keeps.
    """

    __slots__ = (
        "manager", "batch", "limit", "start", "results", "failures",
        "pending", "advancing",
    )

    def __init__(self, manager: CamManager, batch: BatchRequest):
        self.env = manager.env
        self.callbacks = None
        self._ok = True
        self._value = None
        self._defused = False
        self.manager = manager
        self.batch = batch
        self.limit = manager._slice_limit()
        #: first request of the next slice
        self.start = 0
        #: outcomes of the walks of a multi-reactor slice, as they end
        self.results = []
        self.failures = []
        #: walks of the current slice still running
        self.pending = 0
        #: True while :func:`_advance` is starting a slice
        self.advancing = False


def _advance(run: _BatchRun) -> None:
    """Start the batch's next slice, or finish the batch.

    Slices whose single walk ends at once (a crashed reactor) are
    consumed in this loop rather than by recursion.
    """
    manager = run.manager
    batch = run.batch
    driver = manager.driver
    count = batch.request_count
    run.advancing = True
    try:
        while run.start < count:
            start = run.start
            stop = count if run.limit is None else min(
                start + run.limit, count
            )
            run.start = stop
            # the walks record the resize epoch the grouping was computed
            # against, so an elastic remap landing mid-flight drains a
            # group on its original reactor instead of rejecting it
            shared = (
                batch.granularity, batch.is_write, batch.dest,
                batch.trace_span, driver.resize_epoch, run,
            )
            groups = manager._group(batch, start, stop)
            if len(groups) == 1:
                walk = driver.walk(groups[0], *shared, _slice_walked)
                if walk.results is None:
                    return
                continue
            run.pending = len(groups)
            for items in groups:
                driver.walk(items, *shared, _walk_ended)
            return
    except BaseException:
        manager._release(batch)
        raise
    finally:
        run.advancing = False
    manager._release(batch)
    manager._complete(batch, run.failures)


def _slice_walked(walk) -> None:
    """``on_done`` of a slice's only walk."""
    run = walk.owner
    if walk.error is not None:
        _walk_failed(run, walk.error)
        return
    run.failures.extend(run.manager._failures(run.batch, walk.results))
    if not run.advancing:
        _advance(run)


def _walk_ended(walk) -> None:
    """``on_done`` of a walk in a multi-reactor slice: schedule the
    walk-end hop."""
    if walk.error is not None:
        _walk_failed(walk.owner, walk.error)
        return
    walk.callbacks = _ON_WALK_END
    env = walk.env
    env._eid += 1
    heappush(env._heap, (env._now, NORMAL, env._eid, walk))


def _walk_failed(run: _BatchRun, error) -> None:
    """A walk of the batch found its group malformed.  As when a
    process dies: the admission claim goes back, the error
    surfaces from ``env.run``, and the batch never completes (the
    failed walk never counts down ``pending``, so no join fires)."""
    if run.failures is None:
        return
    run.failures = None
    run.manager._release(run.batch)
    Event(run.env).fail(error)


def _walk_joined(walk) -> None:
    """Heap callback: a walk-end hop; the last one schedules the join."""
    run = walk.owner
    run.results.extend(walk.results)
    run.pending -= 1
    if not run.pending:
        run.callbacks = _ON_JOIN
        env = run.env
        env._eid += 1
        heappush(env._heap, (env._now, NORMAL, env._eid, run))


def _slice_joined(run: _BatchRun) -> None:
    """Heap callback: every walk of a multi-reactor slice has ended."""
    results = run.results
    run.results = []
    results.sort(key=_by_index)
    run.failures.extend(run.manager._failures(run.batch, results))
    _advance(run)


#: the batch record's stage lists (see :class:`_BatchRun`)
_ON_WALK_END = [_walk_joined]
_ON_JOIN = [_slice_joined]
