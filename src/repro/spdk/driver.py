"""SPDK user-space NVMe driver.

Kernel-bypass I/O: no file system, no io_map, no block layer — a request
costs only the reactor's sub-microsecond submission/poll time, then goes
straight onto the device queue pair.  "The NVMe driver takes no locks in
the I/O path [...] it scales linearly in terms of performance per thread"
(paper Section III-A); here each queue pair is owned by exactly one
reactor, so no lock is needed in the model either.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import partial
from heapq import heappush
from operator import itemgetter
from typing import Generator, List, Optional

from repro.config import SPDKConfig
from repro.errors import (
    ConfigurationError,
    DeviceError,
    DeviceOfflineError,
    DeviceTimeoutError,
    ReactorOfflineError,
)
from repro.hw.nvme import SQE, NVMeOpcode
from repro.hw.platform import Platform
from repro.oskernel.blockio import CompletionDispatcher
from repro.sim.core import _PENDING, NORMAL, Event, Timeout
from repro.sim.stats import Counter
from repro.spdk.reactor import Reactor, ReactorPool, ReactorSupervisor


@dataclass
class SpdkQueuePairHandle:
    """One (queue pair, dispatcher, reactor) binding for an SSD."""

    ssd_index: int
    queue_pair: object
    dispatcher: CompletionDispatcher
    reactor: Reactor


class SpdkDriver:
    """Per-SSD user-space queue pairs driven by a reactor pool."""

    #: how often a re-homed request re-checks its SSD's handle while
    #: waiting for failover, and how long it waits before giving up
    failover_poll = 1e-3
    failover_grace = 25e-3

    def __init__(
        self,
        platform: Platform,
        num_reactors: Optional[int] = None,
        config: Optional[SPDKConfig] = None,
        occupy_cores: bool = False,
        reliability=None,
        admission=None,
    ):
        self.platform = platform
        self.env = platform.env
        self.config = config or platform.config.spdk
        #: optional :class:`~repro.reliability.Reliability` bundle; None
        #: keeps the original fail-fast behaviour
        self.reliability = reliability
        #: optional :class:`~repro.reliability.AdmissionController`
        #: bounding in-flight work through :meth:`io`
        self.admission = admission
        reactors = num_reactors or platform.num_ssds
        self.pool = ReactorPool(
            self.env,
            platform.num_ssds,
            reactors,
            self.config,
            cpu=platform.cpu if occupy_cores else None,
        )
        self._handles: List[SpdkQueuePairHandle] = []
        for index, ssd in enumerate(platform.ssds):
            qp = ssd.create_queue_pair()
            dispatcher = CompletionDispatcher(self.env, qp)
            self._handles.append(
                SpdkQueuePairHandle(
                    index, qp, dispatcher, self.pool.reactor_for(index)
                )
            )
        self.requests_done = Counter(self.env)
        self.bytes_done = Counter(self.env)
        #: chaos invariant: a request settling twice would count here
        self.duplicate_completions = 0
        #: bumped whenever a remap moves any SSD between reactors; lets
        #: in-flight coalesced groups distinguish "my SSD was re-homed
        #: under me" (drain on the original reactor) from a malformed
        #: group (still a ConfigurationError)
        self.resize_epoch = 0
        self.supervisor: Optional[ReactorSupervisor] = None
        #: (granularity, is_write) -> per-request constants, see _shape
        self._shapes: dict = {}
        self._install_reactor_faults()

    @property
    def num_reactors(self) -> int:
        return self.pool.num_reactors

    def remap(self, active_count: Optional[int] = None) -> None:
        """Spread the SSDs over the first ``active_count`` reactors and
        rebind each queue-pair handle to its new owner.

        A resize (an ``active_count`` different from the current window)
        emits a ``core_grow``/``core_shrink`` tracer instant and bumps
        the ``cam_core_resizes_total`` counter; failover's same-size
        re-homing stays silent (it has its own ``reactor_failover``
        telemetry).  Every path that changes the window — the elastic
        controller, :meth:`CamManager.set_active_reactors`, direct
        calls — funnels through here, so the record is complete.
        """
        previous = self.pool.active_count
        self.pool.remap(active_count)
        moved = False
        for handle in self._handles:
            reactor = self.pool.reactor_for(handle.ssd_index)
            if reactor is not handle.reactor:
                handle.reactor = reactor
                moved = True
        if moved:
            self.resize_epoch += 1
        active = self.pool.active_count
        if active_count is None or active == previous:
            return
        direction = "grow" if active > previous else "shrink"
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant(
                f"core_{direction}",
                from_cores=previous,
                to_cores=active,
            )
        metrics = self.env.metrics
        if metrics.enabled:
            metrics.core_resize(direction, active)

    # -- reactor fault tolerance ---------------------------------------
    def fail_reactor(self, reactor_id: int) -> None:
        """Declare a reactor dead and fail its work over to survivors.

        Re-homes every SSD the dead reactor owned onto alive reactors
        (within the active window), rebinds the queue-pair handles, and
        only then fails the dead reactor's queued charges — rescued
        submitters re-fetch their SSD's handle and land on the new
        owner.  With no survivors the handles stay put and waiters get
        :class:`~repro.errors.ReactorOfflineError`.
        """
        if not 0 <= reactor_id < len(self.pool.reactors):
            raise ConfigurationError(f"no reactor {reactor_id}")
        reactor = self.pool.reactors[reactor_id]
        first = not reactor.crashed
        reactor.crashed = True
        try:
            self.remap()
        except ReactorOfflineError:
            # the whole pool is dead: nothing to re-home onto; queued
            # work still gets typed errors from the drain below
            pass
        if first:
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.instant(
                    "reactor_failover",
                    reactor=reactor_id,
                    survivors=len(self.pool.alive_reactors()),
                )
            metrics = self.env.metrics
            if metrics.enabled:
                metrics.failover(reactor_id)
        reactor.crash()

    def revive_reactor(self, reactor_id: int) -> None:
        """Bring a crashed reactor back and re-balance SSDs over it."""
        if not 0 <= reactor_id < len(self.pool.reactors):
            raise ConfigurationError(f"no reactor {reactor_id}")
        self.pool.reactors[reactor_id].revive()
        self.remap()

    def supervise(self, **kwargs) -> ReactorSupervisor:
        """Start (or return) the stall/crash supervisor for this pool."""
        if self.supervisor is None:
            self.supervisor = ReactorSupervisor(
                self.pool, self.fail_reactor, **kwargs
            )
        return self.supervisor

    def _install_reactor_faults(self) -> None:
        """Schedule injector-planted reactor stalls/crashes.

        No processes (and no heap entries) are created when the injector
        has no reactor faults, so fault-free runs stay bit-identical.
        """
        injector = self.platform.fault_injector
        if injector is None or not injector.has_reactor_faults():
            return
        for reactor_id, start, duration in injector.reactor_stalls:
            if not 0 <= reactor_id < len(self.pool.reactors):
                raise ConfigurationError(
                    f"stall planted on unknown reactor {reactor_id}"
                )
            self.env.process(
                self._stall_episode(reactor_id, start, duration)
            )
        for reactor_id, at in injector.reactor_crashes:
            if not 0 <= reactor_id < len(self.pool.reactors):
                raise ConfigurationError(
                    f"crash planted on unknown reactor {reactor_id}"
                )
            self.env.process(self._crash_episode(reactor_id, at))

    def _stall_episode(
        self, reactor_id: int, start: float, duration: float
    ) -> Generator:
        if start:
            yield self.env.timeout(start)
        self.platform.fault_injector.reactor_faults_delivered += 1
        yield from self.pool.reactors[reactor_id].stall(duration)

    def _crash_episode(self, reactor_id: int, at: float) -> Generator:
        if at:
            yield self.env.timeout(at)
        self.platform.fault_injector.reactor_faults_delivered += 1
        # the crash itself only kills the reactor; healing (re-homing
        # its SSDs) is the supervisor's job — or the test's, explicitly
        self.pool.reactors[reactor_id].crash()

    def _await_failover(
        self, ssd_index: int, dead_reactor: Reactor
    ) -> Generator:
        """Process: wait briefly for a supervisor to re-home an SSD.

        Returns the SSD's re-homed handle, or ``None`` if nothing
        rescued it within ``failover_grace``.
        """
        waited = 0.0
        while waited < self.failover_grace:
            yield self.env.timeout(self.failover_poll)
            waited += self.failover_poll
            handle = self._handles[ssd_index]
            if not handle.reactor.crashed:
                return handle
        return None

    def handle(self, ssd_index: int) -> SpdkQueuePairHandle:
        if not 0 <= ssd_index < len(self._handles):
            raise ConfigurationError(f"no SSD {ssd_index}")
        return self._handles[ssd_index]

    def io(
        self,
        lba: int,
        nbytes: int,
        is_write: bool = False,
        payload=None,
        target=None,
        target_offset: int = 0,
        ssd_index: Optional[int] = None,
        parent_span=None,
    ) -> Generator:
        """Process: one kernel-bypass I/O; resumes when the CQE is polled.

        ``lba`` is striped across SSDs unless ``ssd_index`` is given.
        ``parent_span`` (e.g. a CAM batch span) parents the per-request
        ``submit`` and ``nvme_io`` spans when tracing is enabled.
        """
        block_size = self.platform.config.ssd.block_size
        num_blocks = max(1, -(-nbytes // block_size))
        if ssd_index is None:
            ssd, local_lba = self.platform.ssd_for_lba(lba)
            ssd_index = ssd.ssd_id
        else:
            local_lba = lba

        def attempt():
            # re-fetch the handle each attempt: a failover may have
            # re-homed this SSD onto a surviving reactor between retries
            return self._attempt(
                self._handles[ssd_index], ssd_index, local_lba,
                num_blocks, nbytes, is_write, payload, target,
                target_offset, parent_span,
            )

        admission = self.admission
        if admission is not None:
            admission.admit(1, nbytes)
        try:
            if self.reliability is None:
                cqe = yield from attempt()
            else:
                try:
                    cqe = yield from self.reliability.run(
                        attempt,
                        ssd_id=ssd_index,
                        lba=local_lba,
                        is_write=is_write,
                        parent_span=parent_span,
                    )
                except DeviceTimeoutError:
                    # the watchdog expired: the device is not answering
                    self.reliability.health.mark_offline(ssd_index)
                    raise
        finally:
            if admission is not None:
                admission.release(1, nbytes)

        self.requests_done.add()
        self.bytes_done.add(nbytes)
        return cqe

    def _attempt(
        self,
        handle: SpdkQueuePairHandle,
        ssd_index: int,
        local_lba: int,
        num_blocks: int,
        nbytes: int,
        is_write: bool,
        payload,
        target,
        target_offset: int,
        parent_span,
    ) -> Generator:
        """One device attempt: reactor charge, fresh SQE, CQE wait.

        If the owning reactor is (or goes) offline, the attempt follows
        the SSD's handle to its failed-over reactor; with a reliability
        bundle it additionally waits up to ``failover_grace`` for a
        supervisor to re-home the SSD before giving up with
        :class:`~repro.errors.ReactorOfflineError`.
        """
        # submission + completion-poll CPU on the owning reactor
        while True:
            try:
                span = yield from handle.reactor.charge(parent=parent_span)
                break
            except ReactorOfflineError:
                current = self._handles[ssd_index]
                if (
                    current.reactor is not handle.reactor
                    and not current.reactor.crashed
                ):
                    # failover already re-homed this SSD — retry there
                    handle = current
                    continue
                if self.reliability is None:
                    raise
                handle = yield from self._await_failover(
                    ssd_index, current.reactor
                )
                if handle is None:
                    raise
        cost = handle.reactor.account_request(
            poll_iterations=self._poll_iterations(is_write)
        )
        if span is not None:
            span.tags["ssd"] = ssd_index
            span.tags["is_write"] = is_write
            span.tags.update(cost)

        opcode = NVMeOpcode.WRITE if is_write else NVMeOpcode.READ
        sqe = SQE(
            opcode=opcode,
            lba=local_lba,
            num_blocks=num_blocks,
            payload=payload,
            target=target,
            target_offset=target_offset,
            trace_span=parent_span,
        )
        done = handle.dispatcher.register(sqe.command_id)
        yield handle.queue_pair.submit(sqe)
        reliability = self.reliability
        if reliability is not None and reliability.watchdog is not None:
            cqe = yield from reliability.watchdog.guard(
                done,
                nbytes=nbytes,
                ssd_ids=(ssd_index,),
                fault_injector=self.platform.fault_injector,
                description=f"spdk ssd {ssd_index} lba {local_lba}",
                parent_span=parent_span,
            )
        else:
            cqe = yield done
        return cqe

    def io_batch(
        self,
        items,
        granularity: int,
        is_write: bool = False,
        target=None,
        parent_span=None,
        epoch: Optional[int] = None,
    ) -> Generator:
        """Process: coalesced submission of one reactor's share of a batch.

        ``items`` is a list of ``(orig_index, ssd_index, local_lba,
        payload)`` tuples whose SSDs are all owned by the *same* reactor
        (the caller groups per reactor, preserving batch order).  The
        reactor's serial stage is held once for the whole group; each
        request still pays its ``per_request_cpu`` charge and lands on the
        wire at exactly the instant the fan-out path would put it there
        (the fan-out path's waiters enqueue on the reactor back-to-back,
        so holding the stage across the group does not reorder anything).
        Completions are collected through one
        :class:`~repro.oskernel.blockio.CompletionGroup` per SSD instead
        of one waiter event + process per request.

        Returns a list of ``(orig_index, outcome)`` sorted by
        ``orig_index`` — each outcome a CQE, or a
        :class:`~repro.errors.ReactorOfflineError` for items the owning
        reactor crashed under before they reached the wire.

        ``epoch`` is the :attr:`resize_epoch` observed when the caller
        formed the group (defaults to the value at generator start).  If
        a remap moves an SSD to another reactor after that point — an
        elastic resize or a failover landing mid-group — the group keeps
        draining on its original reactor (in-flight work drains where it
        was charged; only *new* groups land on the new assignment).  A
        mixed group with no intervening remap is a caller bug and still
        raises :class:`~repro.errors.ConfigurationError`.

        The walk itself is :meth:`walk`'s heap-callback record; this
        generator only waits for it, and resumes at the heap pop where
        the walk ends.  Only valid without a reliability bundle —
        per-request retries and watchdog deadlines ride
        :meth:`io_batch_reliable` instead.
        """
        if self.reliability is not None:
            raise ConfigurationError(
                "io_batch is the fail-fast path; use io_batch_reliable "
                "with a reliability bundle"
            )
        return (yield from self._walked(
            items, granularity, is_write, target, parent_span,
            self.resize_epoch if epoch is None else epoch,
        ))

    def _walked(
        self, items, granularity: int, is_write: bool, target,
        parent_span, epoch: int,
    ) -> Generator:
        """Process: run :meth:`walk` and return its results."""
        if not items:
            return []
        done = Event(self.env)
        walk = self.walk(
            items, granularity, is_write, target, parent_span, epoch,
            done, _resume_waiter,
        )
        if walk.results is None:
            yield done
        return walk.results

    def walk(
        self, items, granularity: int, is_write: bool, target,
        parent_span, epoch: int, owner, on_done,
    ) -> "_Walk":
        """Start the coalesced walk of one reactor's group (see
        :meth:`io_batch` for ``items`` and ``epoch``).

        The walk runs up to its first wait and returns its record.  Once
        every request has its outcome, ``record.results`` holds the
        sorted ``(orig_index, outcome)`` list and ``on_done(record)``
        runs — inside this call when nothing had to wait (a fail-fast
        walk on a crashed reactor), else in the heap callback where the
        walk ends.  A fail-fast group that mixes reactors with no remap
        since ``epoch`` ends the walk early instead: ``record.error``
        holds the :class:`~repro.errors.ConfigurationError`,
        ``record.results`` stays None, and ``on_done(record)`` runs at
        once.  ``owner`` rides along on ``record.owner`` for
        ``on_done``.  With a reliability bundle the record is a
        :class:`_ReliableWalk` (see :meth:`io_batch_reliable`), which
        ignores ``epoch``.
        """
        record, step, on_grant = (
            (_Walk, _walk_step, _ON_GRANT) if self.reliability is None
            else (_ReliableWalk, _reliable_step, _ON_RELIABLE_GRANT)
        )
        walk = record(
            self, items, granularity, is_write, target, parent_span, epoch,
            owner, on_done,
        )
        if walk.reactor._serial.acquire(walk):
            step(walk)
        else:
            walk._value = _PENDING
            walk._ok = None
            walk.callbacks = on_grant
        return walk

    def _shape(self, granularity: int, is_write: bool) -> tuple:
        """``(opcode, num_blocks, poll_iterations)`` of one request."""
        key = (granularity, is_write)
        shape = self._shapes.get(key)
        if shape is None:
            block_size = self.platform.config.ssd.block_size
            shape = self._shapes[key] = (
                NVMeOpcode.WRITE if is_write else NVMeOpcode.READ,
                max(1, -(-granularity // block_size)),
                self._poll_iterations(is_write),
            )
        return shape

    def io_batch_reliable(
        self,
        items,
        granularity: int,
        is_write: bool = False,
        target=None,
        parent_span=None,
    ) -> Generator:
        """Process: coalesced submission with per-request reliability.

        Same submission shape as :meth:`io_batch` — one serial hold for
        the group, per-item CPU charge — but each SQE goes through the
        SQ ring, and each completion flows through a
        :class:`CompletionGroup` *sink* instead of the group event:
        successful CQEs settle at coalesced speed, failed CQEs are
        peeled off and re-driven through :meth:`Reliability.run` (the
        failed CQE counts as attempt 1, so retry/backoff/breaker
        accounting matches the fan-out path exactly), and every
        in-flight item carries the same watchdog deadline the fan-out
        path would arm.  If the owning reactor crashes mid-group, or a
        failover re-homes an SSD under it, the affected items fall back
        to the full per-request path, which waits out a failover.

        Returns a list of ``(orig_index, outcome)`` sorted by
        ``orig_index`` — each outcome a CQE (ok, or the final failure
        after the retry budget) or a typed
        :class:`~repro.errors.DeviceError` (watchdog timeouts, offline
        devices, an unrescued reactor crash).

        The walk is :meth:`walk`'s :class:`_ReliableWalk` record; this
        generator only waits for it.
        """
        if self.reliability is None:
            raise ConfigurationError(
                "io_batch_reliable needs a reliability bundle; "
                "use io_batch"
            )
        return (yield from self._walked(
            items, granularity, is_write, target, parent_span,
            self.resize_epoch,
        ))

    def _poll_iterations(self, is_write: bool) -> float:
        """Average empty poll iterations charged per request (Fig. 13).

        With ~16 requests in flight per queue pair, the poller spins
        roughly ``latency / 16`` microseconds between completions; the
        slower write path (82 us vs 15 us) therefore burns several times
        more poll iterations per request — the Fig. 13 read/write gap.
        """
        ssd = self.platform.config.ssd
        latency = ssd.media_latency(is_write)
        return max(1.0, min(64.0, latency / 16e-6))


# -- the coalesced walk -------------------------------------------------------

_by_index = itemgetter(0)


class _Walk(Event):
    """One reactor's share of a coalesced batch, walked by heap callbacks.

    The record is itself the heap event of every stage the walk waits
    on: the hand-over of the reactor's serial slot when it is queued,
    and each request's CPU charge.  Its ``callbacks`` is one of the
    module's stage lists, which every walk shares and whose functions
    take the record as argument, so a walk allocates no process,
    generator, request or timeout, and never references itself.  The
    per-SSD completion groups stay events of their own, waited on in
    order.  This is the fail-fast walk; :class:`_ReliableWalk` extends
    it with retries and watchdog deadlines.
    """

    __slots__ = (
        "driver", "reactor", "items", "position", "charging", "epoch",
        "granularity", "is_write", "target", "parent_span", "tracer",
        "span", "shape", "groups", "owners", "collected", "results",
        "error", "owner", "on_done",
    )

    def __init__(self, driver, items, granularity, is_write, target,
                 parent_span, epoch, owner, on_done):
        env = driver.env
        self.env = env
        self.callbacks = None
        self._ok = True
        self._value = None
        self._defused = False
        self.driver = driver
        self.reactor = driver._handles[items[0][1]].reactor
        self.items = items
        #: index into ``items`` of the next request to submit
        self.position = 0
        #: True while the CPU charge of ``items[position]`` is running
        self.charging = False
        self.epoch = epoch
        self.granularity = granularity
        self.is_write = is_write
        self.target = target
        self.parent_span = parent_span
        tracer = env.tracer
        self.tracer = tracer if tracer.enabled else None
        self.span = None
        self.shape = driver._shape(granularity, is_write)
        #: ssd_index -> CompletionGroup while submitting; then the
        #: groups still to wait for, the next one last
        self.groups = {}
        self.owners = {}  # command_id -> orig_index
        self.collected = []
        #: the sorted ``(orig_index, outcome)`` list, once done
        self.results = None
        #: the ConfigurationError of a group that mixes reactors
        self.error = None
        self.owner = owner
        self.on_done = on_done

    def _group_done(self, event: Event) -> None:
        """Callback of the completion group the walk was waiting on."""
        _walk_collect(self, event)


def _walk_granted(walk: _Walk) -> None:
    """Heap callback: the queued serial slot was handed over, or a
    crash refused it (every request then ends offline)."""
    if walk._ok:
        _walk_step(walk)
        return
    walk._defused = True
    walk._ok = True
    walk._value = None
    _walk_submitted(walk, granted=False)


def _walk_step(walk: _Walk) -> None:
    """Heap callback: advance a walk by one request, in one frame.

    Submits the request whose CPU charge just ended (none at the
    start), then starts the next request's charge, or closes the
    submission phase once every request is on the wire or the reactor
    has crashed.
    """
    driver = walk.driver
    reactor = walk.reactor
    items = walk.items
    position = walk.position
    handles = driver._handles
    cpu = driver.config.per_request_cpu
    if walk.charging:
        orig_index, ssd_index, local_lba, payload = items[position]
        reactor.busy_seconds += cpu
        opcode, num_blocks, poll_iterations = walk.shape
        span = walk.span
        if span is not None:
            # per-request spans keep the fig03/fig13 breakdowns intact;
            # the bulk accounting in _walk_submitted covers the
            # instruction/cycle charges when tracing is off
            cost = reactor.account_request(poll_iterations=poll_iterations)
            span.tags["ssd"] = ssd_index
            span.tags["is_write"] = walk.is_write
            span.tags.update(cost)
            walk.tracer.end(span)
        sqe = SQE(
            opcode=opcode,
            lba=local_lba,
            num_blocks=num_blocks,
            payload=payload,
            target=walk.target,
            target_offset=orig_index * walk.granularity,
            trace_span=walk.parent_span,
        )
        handle = handles[ssd_index]
        dispatcher = handle.dispatcher
        group = walk.groups.get(ssd_index)
        if group is None:
            group = walk.groups[ssd_index] = dispatcher.open_group()
        dispatcher.expect(group, sqe.command_id)
        walk.owners[sqe.command_id] = orig_index
        # ring bypass: the SQ consumer would start the command at this
        # same instant anyway; hand the SQE to the device directly
        driver.platform.ssds[ssd_index].submit_direct(handle.queue_pair, sqe)
        position += 1
        walk.position = position
    if position == len(items) or reactor.crashed:
        walk.charging = False
        _walk_submitted(walk, granted=True)
        return
    ssd_index = items[position][1]
    owner = handles[ssd_index].reactor
    if owner is not reactor and driver.resize_epoch == walk.epoch:
        # a remap re-homing an SSD bumps the epoch, and the group then
        # keeps draining on its original reactor (queue pairs and
        # dispatchers never move); without one the group is malformed
        reactor._serial.release(walk)
        walk.error = ConfigurationError(
            f"io_batch group mixes reactors: SSD {ssd_index} is owned "
            f"by reactor {owner.reactor_id}, group started on "
            f"{reactor.reactor_id}"
        )
        walk.on_done(walk)
        return
    tracer = walk.tracer
    if tracer is not None:
        walk.span = tracer.begin(
            "submit", parent=walk.parent_span, reactor=reactor.reactor_id
        )
    walk.charging = True
    walk.callbacks = _ON_CHARGED
    env = walk.env
    env._eid += 1
    heappush(env._heap, (env._now + cpu, NORMAL, env._eid, walk))


def _close(walk: _Walk, granted: bool) -> None:
    """Close a walk's submission phase: hand the serial slot back,
    account the requests that went on the wire once, and seal their
    completion groups."""
    reactor = walk.reactor
    if granted:
        reactor._serial.release(walk)
    submitted = len(walk.owners)
    reactor.requests.add(submitted)
    if submitted:
        if walk.tracer is None:
            reactor.account_batch(
                submitted, poll_iterations=walk.shape[2]
            )
        metrics = walk.env.metrics
        if metrics.enabled:
            metrics.coalesced_group(reactor.reactor_id, submitted)
    handles = walk.driver._handles
    for ssd_index, group in walk.groups.items():
        handles[ssd_index].dispatcher.seal(group)


def _walk_submitted(walk: _Walk, granted: bool) -> None:
    """Close the submission phase and wait for the completion groups."""
    _close(walk, granted)
    pending = list(walk.groups.values())
    pending.reverse()
    walk.groups = pending
    _walk_collect(walk)


def _walk_collect(walk: _Walk, event: Optional[Event] = None) -> None:
    """Take the completion groups in order, from ``event`` (the one just
    popped, if any) on, until one is still pending.

    The record lets go of a group before waiting on it, so the callback
    it leaves on the group's event is the only link back to it.
    """
    pending = walk.groups
    owners = walk.owners
    collected = walk.collected
    while True:
        if event is not None:
            for command_id, cqe in event._value.items():
                collected.append((owners[command_id], cqe))
        if not pending:
            break
        event = pending.pop().event
        if event.callbacks is not None:
            event.callbacks.append(walk._group_done)
            return
    driver = walk.driver
    reactor = walk.reactor
    submitted = walk.position
    for orig_index, ssd_index, local_lba, _ in walk.items[submitted:]:
        collected.append((
            orig_index,
            ReactorOfflineError(
                f"reactor {reactor.reactor_id} crashed before "
                f"submitting ssd {ssd_index} lba {local_lba}",
                reactor_id=reactor.reactor_id,
                ssd_id=ssd_index,
                lba=local_lba,
            ),
        ))
    driver.requests_done.add(submitted)
    driver.bytes_done.add(submitted * walk.granularity)
    collected.sort(key=_by_index)
    walk.results = collected
    walk.on_done(walk)


def _resume_waiter(walk: _Walk) -> None:
    """``on_done`` of :meth:`SpdkDriver.io_batch` and
    :meth:`SpdkDriver.io_batch_reliable`: mark their event processed
    and resume the waiting generator in this same callback, without a
    heap hop of its own.  A walk's error is thrown into the
    generator, where the walk found it."""
    event = walk.owner
    callbacks, event.callbacks = event.callbacks, None
    event._ok = walk.error is None
    event._value = walk.error
    for callback in callbacks:
        callback(event)


# -- the reliable walk --------------------------------------------------------


class _ReliableWalk(_Walk):
    """A :class:`_Walk` whose requests carry the reliability bundle.

    It keeps every heap event of the reliable generator walk it
    replaced, which replays the fan-out path's same-instant hops so that
    retries sharing the SQ rings tie-break identically; only
    process-start hops are gone.  Besides the serial grant and the CPU
    charges, the record is the heap event of:

    * each request's grant-analog hop, pushed after its charge and
      before its SQE goes on the ring (not the last request's), after
      which the next charge starts;
    * the all-done hop, pushed when the last request settles.

    SQEs go through the SQ ring, whose consumer wakeup stays an event;
    a full ring is waited on before the watchdog is armed.  The
    requests' watchdog deadlines ride one :class:`_DeadlineTimer`.
    Completions reach :func:`_reliable_sink`: an OK CQE settles its
    request, a failed one is re-driven by a :func:`_redrive` process
    through :meth:`~repro.reliability.Reliability.run`, as are requests
    a reactor crash or failover kept off the wire.  ``owners`` maps a
    command id to its item.
    """

    __slots__ = ("outcomes", "retrying", "deadline", "timer", "put")

    def __init__(self, driver, items, granularity, *args):
        super().__init__(driver, items, granularity, *args)
        #: orig_index -> CQE | DeviceError, once settled
        self.outcomes = {}
        #: orig_indexes whose first CQE failed: their re-drive guards
        #: its own attempts, so the walk's deadline stands down
        self.retrying = set()
        watchdog = driver.reliability.watchdog
        if watchdog is None:
            self.deadline = self.timer = None
        else:
            self.deadline = watchdog.deadline(granularity)
            self.timer = _DeadlineTimer(self)
        #: the SQ-ring put of ``items[position]`` while the ring is full
        self.put = None

    def _put_done(self, event: Event) -> None:
        """Callback of the put the walk waited on (a full SQ ring)."""
        _reliable_submitted(self)


class _DeadlineTimer(Event):
    """The watchdog deadlines of one reliable walk's requests, one heap
    entry at a time.

    Arming a deadline reserves its heap sequence number and appends
    ``(expiry, sequence, position)`` to packed arrays.  Only the
    earliest pending deadline is on the heap, under its reserved key;
    its pop pushes the next one under that one's key, then fails its
    request unless the first CQE has arrived.  A walk arms in increasing
    ``(expiry, sequence)`` order (its deadline is fixed and time never
    runs back), so each deadline pops where a heap entry of its own
    would have.  Once the walk hands its results over the timer lets go
    of it: the deadlines still pending pop as no-ops that pin nothing
    but these arrays.
    """

    __slots__ = ("walk", "expiries", "sequences", "positions", "head")

    def __init__(self, walk: _ReliableWalk):
        self.env = walk.env
        #: ``_ON_DEADLINE`` while a deadline is on the heap, else None
        self.callbacks = None
        self._ok = True
        self._value = None
        self._defused = False
        #: the walk, until it hands its results over
        self.walk = walk
        self.expiries = array("d")
        self.sequences = array("q")
        #: index into the walk's ``items`` of each deadline's request
        self.positions = array("q")
        #: the deadline on the heap, or the next one to be armed
        self.head = 0


def _arm(walk: _ReliableWalk, position: int) -> None:
    """Arm the watchdog deadline of ``walk.items[position]``."""
    timer = walk.timer
    env = walk.env
    env._eid += 1
    expiry = env._now + walk.deadline
    timer.expiries.append(expiry)
    timer.sequences.append(env._eid)
    timer.positions.append(position)
    if timer.callbacks is None:
        # none of the walk's deadlines is pending: this one goes on
        timer.callbacks = _ON_DEADLINE
        heappush(env._heap, (expiry, NORMAL, env._eid, timer))


def _reliable_granted(walk: _ReliableWalk) -> None:
    """Heap callback: the queued serial slot was handed over, or a
    crash refused it (every request is then re-driven)."""
    if walk._ok:
        _reliable_step(walk)
        return
    walk._defused = True
    walk._ok = True
    walk._value = None
    _reliable_close(walk, granted=False)


def _reliable_step(walk: _ReliableWalk) -> None:
    """Start the next request's CPU charge, peeling off requests whose
    SSD a failover re-homed, or close the submission phase once every
    request is on the wire or the reactor has crashed.

    Also the callback of the grant-analog hop, which leaves a put still
    waiting for ring space to go on from its own callback.
    """
    if walk.put is not None:
        return
    reactor = walk.reactor
    items = walk.items
    position = walk.position
    driver = walk.driver
    handles = driver._handles
    while position < len(items) and not reactor.crashed:
        item = items[position]
        if handles[item[1]].reactor is not reactor:
            # peel it off to the per-request path instead of charging
            # the wrong reactor
            walk.env.process(_redrive(walk, item))
            position += 1
            continue
        walk.position = position
        tracer = walk.tracer
        if tracer is not None:
            walk.span = tracer.begin(
                "submit", parent=walk.parent_span,
                reactor=reactor.reactor_id,
            )
        walk.callbacks = _ON_RELIABLE_CHARGED
        env = walk.env
        env._eid += 1
        heappush(env._heap, (
            env._now + driver.config.per_request_cpu, NORMAL, env._eid,
            walk,
        ))
        return
    walk.position = position
    _reliable_close(walk, granted=True)


def _reliable_charged(walk: _ReliableWalk) -> None:
    """Heap callback: a request's CPU charge ended; put its SQE on the
    ring.

    Fan-out order inside this instant: the finishing charge releases
    the reactor's serial slot, granting the next waiter, before the SQE
    goes on the ring and its guard is armed, and the next charge starts
    only when that grant pops.  The grant-analog hop replays it.
    """
    driver = walk.driver
    reactor = walk.reactor
    env = walk.env
    items = walk.items
    position = walk.position
    item = items[position]
    orig_index, ssd_index, local_lba, payload = item
    reactor.busy_seconds += driver.config.per_request_cpu
    reactor.last_progress = env._now
    opcode, num_blocks, poll_iterations = walk.shape
    span = walk.span
    if span is not None:
        cost = reactor.account_request(poll_iterations=poll_iterations)
        span.tags["ssd"] = ssd_index
        span.tags["is_write"] = walk.is_write
        span.tags.update(cost)
        walk.tracer.end(span)
    if position + 1 < len(items):
        walk.callbacks = _ON_HOP
        env._eid += 1
        heappush(env._heap, (env._now, NORMAL, env._eid, walk))
    sqe = SQE(
        opcode=opcode,
        lba=local_lba,
        num_blocks=num_blocks,
        payload=payload,
        target=walk.target,
        target_offset=orig_index * walk.granularity,
        trace_span=walk.parent_span,
    )
    handle = driver._handles[ssd_index]
    dispatcher = handle.dispatcher
    group = walk.groups.get(ssd_index)
    if group is None:
        group = walk.groups[ssd_index] = dispatcher.open_group()
        group.sink = partial(_reliable_sink, walk)
    dispatcher.expect(group, sqe.command_id)
    walk.owners[sqe.command_id] = item
    # through the SQ ring (not submit_direct): retries share these
    # rings, and the device-side hop structure must match theirs
    put = handle.queue_pair.submit(sqe)
    if put.callbacks is None:
        _reliable_submitted(walk)
    else:
        walk.put = put
        put.callbacks.append(walk._put_done)


def _reliable_submitted(walk: _ReliableWalk) -> None:
    """The SQE of ``items[position]`` is on the ring: arm its watchdog
    deadline, then go on once its hop has popped."""
    walk.put = None
    position = walk.position
    if walk.timer is not None:
        _arm(walk, position)
    position += 1
    walk.position = position
    if position == len(walk.items):
        _reliable_close(walk, granted=True)
    elif walk.callbacks is None:
        # the hop popped while the put waited for ring space
        _reliable_step(walk)


def _reliable_close(walk: _ReliableWalk, granted: bool) -> None:
    """Close the submission phase; the requests it never put on the
    wire ride the full per-request path, which waits out a failover.

    The dispatchers hold the sealed groups until their last CQE, so the
    record lets go of them: no reference cycle runs through the sinks.
    """
    _close(walk, granted)
    walk.groups = None
    process = walk.env.process
    for item in walk.items[walk.position:]:
        process(_redrive(walk, item))


def _reliable_sink(walk: _ReliableWalk, cqe) -> None:
    """Completion sink of a reliable walk's groups."""
    item = walk.owners[cqe.command_id]
    orig_index = item[0]
    if orig_index in walk.outcomes:
        return  # the watchdog already settled it
    if cqe.ok:
        # mirror Reliability.run's first-attempt success
        cqe.attempts = 1
        walk.driver.reliability.health.record_success(item[1])
        _settle(walk, orig_index, cqe)
        return
    walk.retrying.add(orig_index)
    env = walk.env
    hop = Timeout(env, 0.0)
    env.process(_redrive(walk, item, cqe, hop))


def _deadline_expired(timer: _DeadlineTimer) -> None:
    """Heap callback: a request's watchdog deadline passed.  The next
    pending deadline goes on the heap first, under its reserved key."""
    head = timer.head
    position = timer.positions[head]
    head += 1
    timer.head = head
    if head < len(timer.expiries):
        timer.callbacks = _ON_DEADLINE
        heappush(timer.env._heap, (
            timer.expiries[head], NORMAL, timer.sequences[head], timer,
        ))
    walk = timer.walk
    if walk is None:
        return  # the walk has handed its results over
    orig_index, ssd_index, local_lba, _ = walk.items[position]
    if orig_index in walk.outcomes or orig_index in walk.retrying:
        return
    driver = walk.driver
    reliability = driver.reliability
    watchdog = reliability.watchdog
    watchdog.timeouts_fired += 1
    error = watchdog.classify(
        ssd_ids=(ssd_index,),
        fault_injector=driver.platform.fault_injector,
        deadline=walk.deadline,
        description=f"spdk ssd {ssd_index} lba {local_lba}",
    )
    tracer = walk.tracer
    if tracer is not None:
        tracer.instant(
            "watchdog_timeout",
            parent=walk.parent_span,
            deadline=walk.deadline,
            offline=isinstance(error, DeviceOfflineError),
        )
    reliability.health.mark_offline(ssd_index)
    _settle(walk, orig_index, error)


def _redrive(walk: _ReliableWalk, item, first_cqe=None, hop=None):
    """Process: one request of a walk on the full per-request reliable
    path.

    ``first_cqe`` is the failed CQE of a request the walk put on the
    wire; it counts as attempt 1.  The fan-out path delivers that CQE
    to its request process across three same-instant hops — the CQ-ring
    wake (``hop``, created by the sink), the per-command waiter event
    and the watchdog's AnyOf condition — so they are replayed before
    :meth:`Reliability.run`, which then creates the retry's backoff
    timer where the fan-out path would.
    """
    driver = walk.driver
    reliability = driver.reliability
    env = walk.env
    orig_index, ssd_index, local_lba, payload = item
    metrics = env.metrics
    if metrics.enabled:
        metrics.redrive()
    tracer = walk.tracer
    parent_span = walk.parent_span
    if tracer is not None and parent_span is not None:
        # flow-link the redrive back to the originating request so
        # cam-trace can attribute retry latency to its trace_id
        tracer.instant(
            "redrive_link",
            parent=parent_span,
            ssd=ssd_index,
            lba=local_lba,
            trace_id=parent_span.tags.get("trace_id"),
            links=parent_span.tags.get("links"),
        )
    if hop is not None:
        yield hop
        yield Timeout(env, 0.0)
        yield Timeout(env, 0.0)

    def attempt():
        # re-fetch the handle: after a failover the SSD may have been
        # re-homed onto a surviving reactor
        return driver._attempt(
            driver._handles[ssd_index], ssd_index, local_lba,
            walk.shape[1], walk.granularity, walk.is_write, payload,
            walk.target, orig_index * walk.granularity, parent_span,
        )

    try:
        outcome = yield from reliability.run(
            attempt,
            ssd_id=ssd_index,
            lba=local_lba,
            is_write=walk.is_write,
            parent_span=parent_span,
            first_cqe=first_cqe,
        )
    except DeviceTimeoutError as error:
        reliability.health.mark_offline(ssd_index)
        outcome = error
    except DeviceError as error:
        outcome = error
    _settle(walk, orig_index, outcome)


def _settle(walk: _ReliableWalk, orig_index: int, outcome) -> None:
    """Record a request's outcome; the last one schedules the all-done
    hop."""
    outcomes = walk.outcomes
    if orig_index in outcomes:
        # invariant: a request terminates exactly once
        walk.driver.duplicate_completions += 1
        return
    outcomes[orig_index] = outcome
    if len(outcomes) == len(walk.items):
        walk.callbacks = _ON_ALL_DONE
        env = walk.env
        env._eid += 1
        heappush(env._heap, (env._now, NORMAL, env._eid, walk))


def _reliable_done(walk: _ReliableWalk) -> None:
    """Heap callback: the all-done hop; hand the results over."""
    results = sorted(walk.outcomes.items())
    completed = sum(
        1 for _, outcome in results if not isinstance(outcome, DeviceError)
    )
    driver = walk.driver
    driver.requests_done.add(completed)
    driver.bytes_done.add(completed * walk.granularity)
    if walk.timer is not None:
        # its deadlines still pending no longer pin the walk
        walk.timer.walk = None
    walk.results = results
    walk.on_done(walk)


#: the walks' stage lists (see :class:`_Walk` and :class:`_ReliableWalk`)
_ON_GRANT = [_walk_granted]
_ON_CHARGED = [_walk_step]
_ON_RELIABLE_GRANT = [_reliable_granted]
_ON_RELIABLE_CHARGED = [_reliable_charged]
_ON_HOP = [_reliable_step]
_ON_ALL_DONE = [_reliable_done]
_ON_DEADLINE = [_deadline_expired]
