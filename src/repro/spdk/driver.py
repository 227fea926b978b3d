"""SPDK user-space NVMe driver.

Kernel-bypass I/O: no file system, no io_map, no block layer — a request
costs only the reactor's sub-microsecond submission/poll time, then goes
straight onto the device queue pair.  "The NVMe driver takes no locks in
the I/O path [...] it scales linearly in terms of performance per thread"
(paper Section III-A); here each queue pair is owned by exactly one
reactor, so no lock is needed in the model either.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        if not items:
            return []
        done = Event(self.env)
        walk = self.walk(
            items, granularity, is_write, target, parent_span,
            self.resize_epoch if epoch is None else epoch,
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
        every completion is in, ``record.results`` holds the sorted
        ``(orig_index, outcome)`` list and ``on_done(record)`` runs —
        inside this call when nothing had to wait (a crashed reactor),
        else in the heap callback where the last completion pops.  A
        group that mixes reactors with no remap since ``epoch`` ends the
        walk early instead: ``record.error`` holds the
        :class:`~repro.errors.ConfigurationError`, ``record.results``
        stays None, and ``on_done(record)`` runs at once.  ``owner``
        rides along on ``record.owner`` for ``on_done``.
        """
        walk = _Walk(
            self, items, granularity, is_write, target, parent_span,
            epoch, owner, on_done,
        )
        if walk.reactor._serial.acquire(walk):
            _walk_step(walk)
        else:
            walk._value = _PENDING
            walk._ok = None
            walk.callbacks = _ON_GRANT
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
        the group, per-item CPU charge, SQ/CQ ring bypass — but each
        completion flows through a :class:`CompletionGroup` *sink*
        instead of the group event: successful CQEs settle at coalesced
        speed, failed CQEs are peeled off and re-driven through
        :meth:`Reliability.run` (the failed CQE counts as attempt 1, so
        retry/backoff/breaker accounting matches the fan-out path
        exactly), and every in-flight item carries the same watchdog
        deadline the fan-out path would arm.  If the owning reactor
        crashes mid-group, unsubmitted items fall back to the full
        per-request path, which waits out a failover.

        Returns a list of ``(orig_index, outcome)`` sorted by
        ``orig_index`` — each outcome a CQE (ok, or the final failure
        after the retry budget) or a typed
        :class:`~repro.errors.DeviceError` (watchdog timeouts, offline
        devices, an unrescued reactor crash).
        """
        reliability = self.reliability
        if reliability is None:
            raise ConfigurationError(
                "io_batch_reliable needs a reliability bundle; "
                "use io_batch"
            )
        if not items:
            return []
        env = self.env
        opcode, num_blocks, poll_iterations = self._shape(
            granularity, is_write
        )
        handles = self._handles
        ssds = self.platform.ssds
        reactor = handles[items[0][1]].reactor
        tracer = env.tracer
        tracing = tracer.enabled
        per_request_cpu = self.config.per_request_cpu
        watchdog = reliability.watchdog
        injector = self.platform.fault_injector

        by_index = {item[0]: item for item in items}
        outcomes = {}  # orig_index -> CQE | DeviceError
        #: orig_indexes whose first CQE arrived (disarms the watchdog;
        #: retries arm their own guards inside _attempt)
        first_done = set()
        all_done = env.event()
        state = {"remaining": len(items)}

        def settle(orig_index, outcome):
            if orig_index in outcomes:
                # invariant: a request terminates exactly once
                self.duplicate_completions += 1
                return
            outcomes[orig_index] = outcome
            state["remaining"] -= 1
            if state["remaining"] == 0:
                all_done.succeed()

        def make_attempt(orig_index, ssd_index, local_lba, payload):
            def attempt():
                # re-fetch the handle: after a failover the SSD may
                # have been re-homed onto a surviving reactor
                return self._attempt(
                    self._handles[ssd_index], ssd_index, local_lba,
                    num_blocks, granularity, is_write, payload, target,
                    orig_index * granularity, parent_span,
                )
            return attempt

        metrics = env.metrics

        def link_redrive(ssd_index, local_lba):
            # flow-link the redrive back to the originating request so
            # cam-trace can attribute retry latency to its trace_id
            if tracing and parent_span is not None:
                tracer.instant(
                    "redrive_link",
                    parent=parent_span,
                    ssd=ssd_index,
                    lba=local_lba,
                    trace_id=parent_span.tags.get("trace_id"),
                    links=parent_span.tags.get("links"),
                )

        def redrive(orig_index, ssd_index, local_lba, payload):
            """Process: the full per-request reliable path for one item
            (used for items that never reached the wire)."""
            if metrics.enabled:
                metrics.redrive()
            link_redrive(ssd_index, local_lba)
            try:
                cqe = yield from reliability.run(
                    make_attempt(orig_index, ssd_index, local_lba, payload),
                    ssd_id=ssd_index,
                    lba=local_lba,
                    is_write=is_write,
                    parent_span=parent_span,
                )
            except DeviceTimeoutError as error:
                reliability.health.mark_offline(ssd_index)
                settle(orig_index, error)
                return
            except DeviceError as error:
                settle(orig_index, error)
                return
            settle(orig_index, cqe)

        def redrive_failed(hop, orig_index, ssd_index, local_lba, payload,
                           first_cqe):
            """Process: re-drive one failed command through the retry loop.

            The fan-out path delivers a failed CQE to its request process
            across three same-instant event hops — the CQ-ring wake, the
            per-command waiter event, and the watchdog's AnyOf condition.
            The sink absorbs the CQE with zero hops, so this process
            replays them before entering :meth:`Reliability.run`; the
            retry's backoff timer is then created at exactly the position
            in the event order where the fan-out path would create it,
            keeping same-instant tie-breaks on shared stages bit-identical.
            """
            if metrics.enabled:
                metrics.redrive()
            link_redrive(ssd_index, local_lba)
            yield hop                # CQ-ring -> dispatcher wake
            yield env.timeout(0.0)   # per-command waiter event
            yield env.timeout(0.0)   # watchdog AnyOf condition
            try:
                cqe = yield from reliability.run(
                    make_attempt(orig_index, ssd_index, local_lba, payload),
                    ssd_id=ssd_index,
                    lba=local_lba,
                    is_write=is_write,
                    parent_span=parent_span,
                    first_cqe=first_cqe,
                )
            except DeviceTimeoutError as error:
                reliability.health.mark_offline(ssd_index)
                settle(orig_index, error)
                return
            except DeviceError as error:
                settle(orig_index, error)
                return
            settle(orig_index, cqe)

        def make_sink(ssd_index):
            def sink(cqe):
                orig_index = owners[cqe.command_id]
                if orig_index in outcomes:
                    return  # watchdog already settled it
                first_done.add(orig_index)
                if cqe.ok:
                    # mirror Reliability.run's first-attempt success
                    cqe.attempts = 1
                    reliability.health.record_success(ssd_index)
                    settle(orig_index, cqe)
                    return
                item = by_index[orig_index]
                hop = env.timeout(0.0)
                env.process(
                    redrive_failed(
                        hop, orig_index, ssd_index, item[2], item[3], cqe
                    )
                )
            return sink

        def arm_watchdog(orig_index, ssd_index, local_lba):
            # same deadline the fan-out guard would race the CQE against
            deadline = watchdog.deadline(granularity)
            timer = env.timeout(deadline)

            def expire(_event):
                if orig_index in first_done or orig_index in outcomes:
                    return
                watchdog.timeouts_fired += 1
                error = watchdog.classify(
                    ssd_ids=(ssd_index,),
                    fault_injector=injector,
                    deadline=deadline,
                    description=f"spdk ssd {ssd_index} lba {local_lba}",
                )
                if tracer.enabled:
                    tracer.instant(
                        "watchdog_timeout",
                        parent=parent_span,
                        deadline=deadline,
                        offline=isinstance(error, DeviceOfflineError),
                    )
                reliability.health.mark_offline(ssd_index)
                first_done.add(orig_index)
                settle(orig_index, error)

            timer.callbacks.append(expire)

        groups = {}  # ssd_index -> CompletionGroup
        owners = {}  # command_id -> orig_index
        submitted = 0
        slot = reactor._serial.request()
        granted = False
        try:
            try:
                yield slot
                granted = True
            except ReactorOfflineError:
                pass  # whole group re-drives below
            if granted:
                last = len(items) - 1
                for pos, (orig_index, ssd_index, local_lba, payload) in (
                    enumerate(items)
                ):
                    if reactor.crashed:
                        break
                    handle = handles[ssd_index]
                    if handle.reactor is not reactor:
                        # a failover re-homed this SSD between grouping
                        # and submission: peel it off to the per-request
                        # path instead of charging the wrong reactor
                        env.process(
                            redrive(orig_index, ssd_index, local_lba, payload)
                        )
                        submitted += 1
                        continue
                    span = None
                    if tracing:
                        span = tracer.begin(
                            "submit",
                            parent=parent_span,
                            reactor=reactor.reactor_id,
                        )
                    yield Timeout(env, per_request_cpu)
                    reactor.busy_seconds += per_request_cpu
                    reactor.last_progress = env.now
                    if tracing:
                        cost = reactor.account_request(
                            poll_iterations=poll_iterations
                        )
                        span.tags["ssd"] = ssd_index
                        span.tags["is_write"] = is_write
                        span.tags.update(cost)
                        tracer.end(span)
                    # Fan-out order inside this instant: the finishing
                    # charge releases the reactor serial (granting the
                    # next waiter) *before* the SQE goes on the wire and
                    # the guard is armed, and the next request's CPU
                    # timer is only created when that grant event pops.
                    # Replay it: schedule the grant-analog hop first,
                    # submit, then let the hop pop before the next item's
                    # timer exists.  Retries run the real fan-out code,
                    # so same-instant tie-breaks between first attempts
                    # and retries resolve identically on both paths.
                    hop = env.timeout(0.0) if pos != last else None
                    sqe = SQE(
                        opcode=opcode,
                        lba=local_lba,
                        num_blocks=num_blocks,
                        payload=payload,
                        target=target,
                        target_offset=orig_index * granularity,
                        trace_span=parent_span,
                    )
                    group = groups.get(ssd_index)
                    if group is None:
                        group = handle.dispatcher.open_group()
                        group.sink = make_sink(ssd_index)
                        groups[ssd_index] = group
                    handle.dispatcher.expect(group, sqe.command_id)
                    owners[sqe.command_id] = orig_index
                    # through the SQ ring (not submit_direct): retries
                    # share these rings, and the device-side hop
                    # structure must match theirs for tie-break parity
                    yield handle.queue_pair.submit(sqe)
                    if watchdog is not None:
                        arm_watchdog(orig_index, ssd_index, local_lba)
                    submitted += 1
                    if hop is not None:
                        yield hop
        finally:
            if granted:
                reactor._serial.release(slot)
            elif not slot.triggered:
                slot.cancel()
        # reactor accounting covers only wire-submitted items (len(owners));
        # peeled/leftover items charge their own reactor inside _attempt
        reactor.requests.add(len(owners))
        if not tracing and len(owners):
            reactor.account_batch(
                len(owners), poll_iterations=poll_iterations
            )
        if metrics.enabled and owners:
            metrics.coalesced_group(reactor.reactor_id, len(owners))
        for ssd_index, group in groups.items():
            handles[ssd_index].dispatcher.seal(group)
        # unsubmitted leftovers ride the full per-request reliable path
        # (charge waits out a failover, every attempt gets its own guard)
        for orig_index, ssd_index, local_lba, payload in items[submitted:]:
            env.process(
                redrive(orig_index, ssd_index, local_lba, payload)
            )
        if state["remaining"]:
            yield all_done
        results = sorted(outcomes.items())
        completed = sum(
            1 for _, outcome in results
            if not isinstance(outcome, DeviceError)
        )
        self.requests_done.add(completed)
        self.bytes_done.add(completed * granularity)
        return results

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
    order.
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


def _walk_submitted(walk: _Walk, granted: bool) -> None:
    """Close the submission phase: hand the serial slot back, account
    the group once, seal its completion groups and wait for them."""
    driver = walk.driver
    reactor = walk.reactor
    if granted:
        reactor._serial.release(walk)
    submitted = walk.position
    reactor.requests.add(submitted)
    if submitted:
        if walk.tracer is None:
            reactor.account_batch(
                submitted, poll_iterations=walk.shape[2]
            )
        metrics = driver.env.metrics
        if metrics.enabled:
            metrics.coalesced_group(reactor.reactor_id, submitted)
    groups = walk.groups
    handles = driver._handles
    for ssd_index, group in groups.items():
        handles[ssd_index].dispatcher.seal(group)
    pending = list(groups.values())
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
    """``on_done`` of :meth:`SpdkDriver.io_batch`: mark its event
    processed and resume the waiting generator in this same callback,
    without a heap hop of its own.  A walk's error is thrown into the
    generator, where the walk found it."""
    event = walk.owner
    callbacks, event.callbacks = event.callbacks, None
    event._ok = walk.error is None
    event._value = walk.error
    for callback in callbacks:
        callback(event)


#: the walk's stage lists (see :class:`_Walk`)
_ON_GRANT = [_walk_granted]
_ON_CHARGED = [_walk_step]
