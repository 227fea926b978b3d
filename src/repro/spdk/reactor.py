"""SPDK reactors: polling CPU cores that own NVMe queue pairs.

A reactor is modelled as a serial CPU stage (capacity-1 resource): every
request charged to it pays ``per_request_cpu`` seconds of submission +
completion-poll work.  A reactor that owns more SSDs than its IOPS budget
covers becomes the bottleneck — the effect Fig. 12 measures (1 core drives
2 SSDs losslessly; 4 SSDs degrade to ~75 %).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional

from repro.config import SPDKConfig
from repro.errors import ConfigurationError, ReactorOfflineError
from repro.hw.cpu import CycleAccountant
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.stats import Counter


class Reactor:
    """One polling core."""

    def __init__(
        self,
        env: Environment,
        reactor_id: int,
        config: SPDKConfig,
        cpu=None,
    ):
        self.env = env
        self.reactor_id = reactor_id
        self.config = config
        self._serial = Resource(env, capacity=1)
        self.requests = Counter(env)
        self.accountant = CycleAccountant()
        #: cumulative simulated seconds this core spent busy (charges,
        #: coalesced per-item CPU, stalls) — pure float accounting, so
        #: reading or windowing it never perturbs the event heap.  The
        #: sampler and :meth:`CamManager.reactor_busy_fractions` derive
        #: the paper's compute/IO-ratio signal from deltas of this.
        self.busy_seconds = 0.0
        #: set by :meth:`crash` — a crashed reactor refuses new work and
        #: has failed every queued charge with ReactorOfflineError
        self.crashed = False
        #: simulated time the reactor last finished a unit of work; a
        #: supervisor treats a busy reactor with stale progress as stalled
        self.last_progress = env.now
        self._core_grant = None
        if cpu is not None:
            # occupy a physical core for the reactor's lifetime
            self._core_grant = cpu.acquire_core()

    def _offline_error(self) -> ReactorOfflineError:
        return ReactorOfflineError(
            f"reactor {self.reactor_id} is offline",
            reactor_id=self.reactor_id,
        )

    def charge(
        self, seconds: Optional[float] = None, parent=None
    ) -> Generator:
        """Process: serialized CPU work on this reactor.

        Returns the ``submit`` span covering the busy time (or ``None``
        when tracing is disabled), so callers can attach request tags.
        The span excludes the wait for the core — per-reactor
        utilization sums span durations, so only busy time may count.

        Raises :class:`~repro.errors.ReactorOfflineError` if the reactor
        has crashed — either immediately, or from the ``yield`` when
        :meth:`crash` fails this charge's queued slot request.
        """
        if self.crashed:
            raise self._offline_error()
        cost = self.config.per_request_cpu if seconds is None else seconds
        span = None
        # Manual request lifecycle instead of ``with``: crash() may fail
        # our queued request, and the context manager's release on a
        # triggered-but-never-granted request would raise double-release.
        req = self._serial.request()
        granted = False
        try:
            yield req
            granted = True
            if self.crashed:
                raise self._offline_error()
            tracer = self.env.tracer
            if tracer.enabled:
                span = tracer.begin(
                    "submit", parent=parent, reactor=self.reactor_id
                )
            yield self.env.timeout(cost)
            self.busy_seconds += cost
            if span is not None:
                tracer.end(span)
            self.last_progress = self.env.now
        finally:
            if granted:
                self._serial.release(req)
            elif not req.triggered:
                req.cancel()
        self.requests.add()
        return span

    def stall(self, duration: float) -> Generator:
        """Process: hold the reactor's serial stage busy for ``duration``.

        Models a poller wedged on a slow syscall or preempted by the
        kernel: queued work waits (or is failed if :meth:`crash` fires
        mid-stall), and ``last_progress`` goes stale so a supervisor can
        notice.
        """
        req = self._serial.request()
        granted = False
        try:
            yield req
            granted = True
            tracer = self.env.tracer
            span = (
                tracer.begin("reactor_stall", reactor=self.reactor_id)
                if tracer.enabled
                else None
            )
            yield self.env.timeout(duration)
            # a wedged poller still occupies its core: stalls count as busy
            self.busy_seconds += duration
            if span is not None:
                tracer.end(span, duration=duration)
        finally:
            if granted:
                self._serial.release(req)
            elif not req.triggered:
                req.cancel()

    def crash(self) -> None:
        """Declare this reactor dead.

        New :meth:`charge` calls raise immediately; every queued slot
        request is failed with :class:`ReactorOfflineError` so waiting
        submitters can re-home their work on a surviving reactor.  The
        drain runs even if the ``crashed`` flag was already set —
        :meth:`SpdkDriver.fail_reactor` flags the reactor *before*
        re-homing its SSDs (so the remap skips it) and only then calls
        here to rescue the waiters.
        """
        first = not self.crashed
        self.crashed = True
        if first:
            tracer = self.env.tracer
            if tracer.enabled:
                tracer.instant("reactor_crash", reactor=self.reactor_id)
        queued = list(self._serial._queue)
        self._serial._queue.clear()
        for req in queued:
            if not req.triggered:
                req.fail(self._offline_error())

    def revive(self) -> None:
        """Bring a crashed reactor back (operator replaced the thread)."""
        if not self.crashed:
            return
        self.crashed = False
        self.last_progress = self.env.now
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.instant("reactor_revive", reactor=self.reactor_id)

    def account_request(self, poll_iterations: float = 1.0) -> dict:
        """Record Fig. 13-style instruction counts for one request.

        Returns the charged ``instructions``/``cycles`` so the caller
        can tag the request's span with them (Fig. 13 via the trace).
        """
        submit_instructions = self.config.submit_instructions
        poll_instructions = (
            self.config.poll_instructions_per_iter * poll_iterations
        )
        self.accountant.charge(
            "submit", submit_instructions, self.config.work_ipc
        )
        self.accountant.charge(
            "poll", poll_instructions, self.config.poll_ipc
        )
        self.accountant.complete_request()
        return {
            "instructions": submit_instructions + poll_instructions,
            "cycles": (
                submit_instructions / self.config.work_ipc
                + poll_instructions / self.config.poll_ipc
            ),
            "poll_iterations": poll_iterations,
        }

    def account_batch(self, count: int, poll_iterations: float = 1.0) -> None:
        """Bulk form of :meth:`account_request` for coalesced submission.

        Charging is linear in the request count, so one call with
        ``count`` requests leaves the request count and the instruction
        totals exactly where ``count`` :meth:`account_request` calls
        would.  Cycles are one division instead of ``count`` summed
        quotients, so they agree only to rounding (relative drift below
        1e-12 up to 8192 requests): a traced run, which accounts per
        request, differs from an untraced one in the last bits.  Callers
        that must reproduce an untraced run bit for bit make exactly one
        call per coalesced group.
        """
        self.accountant.charge(
            "submit",
            count * self.config.submit_instructions,
            self.config.work_ipc,
        )
        self.accountant.charge(
            "poll",
            count * self.config.poll_instructions_per_iter * poll_iterations,
            self.config.poll_ipc,
        )
        self.accountant.complete_request(count)

    @property
    def iops_capacity(self) -> float:
        return 1.0 / self.config.per_request_cpu


class ReactorPool:
    """A set of reactors with an SSD -> reactor assignment.

    ``ssds_per_reactor`` > 1 reproduces the paper's "one CPU thread
    controls multiple NVMes" experiment; assignment is round-robin so load
    spreads evenly.
    """

    def __init__(
        self,
        env: Environment,
        num_ssds: int,
        num_reactors: int,
        config: SPDKConfig,
        cpu=None,
    ):
        if num_reactors < 1:
            raise ConfigurationError("need at least one reactor")
        if num_ssds < 1:
            raise ConfigurationError("need at least one SSD")
        self.env = env
        self.config = config
        self.reactors: List[Reactor] = [
            Reactor(env, index, config, cpu=cpu)
            for index in range(num_reactors)
        ]
        self._assignment = [
            index % num_reactors for index in range(num_ssds)
        ]
        #: active window set by the last remap (Fig. 12 dynamic cores)
        self._active = num_reactors

    def remap(self, active_count: Optional[int] = None) -> None:
        """Re-assign every SSD round-robin over the first ``active_count``
        reactors (the Fig. 12 dynamic core adjustment), skipping crashed
        ones.

        Reactors beyond ``active_count`` keep existing but receive no new
        work; in-flight requests on them drain normally.  With no crashed
        reactors the assignment is identical to the historical
        ``index % active_count`` round-robin.  Crashed reactors inside the
        active window are skipped; if the whole window is dead, every
        alive reactor (anywhere) is drafted, and an all-dead pool raises
        :class:`ReactorOfflineError`.

        ``remap()`` with no argument re-balances over the current window —
        the failover entry point after a crash or revive.
        """
        if active_count is None:
            active_count = self._active
        if not 1 <= active_count <= len(self.reactors):
            raise ConfigurationError(
                f"active reactor count {active_count} outside "
                f"[1, {len(self.reactors)}]"
            )
        self._active = active_count
        candidates = [
            reactor.reactor_id
            for reactor in self.reactors[:active_count]
            if not reactor.crashed
        ]
        if not candidates:
            candidates = [
                reactor.reactor_id
                for reactor in self.reactors
                if not reactor.crashed
            ]
        if not candidates:
            raise ReactorOfflineError(
                "every reactor in the pool is offline"
            )
        self._assignment = [
            candidates[index % len(candidates)]
            for index in range(len(self._assignment))
        ]

    @property
    def active_count(self) -> int:
        return self._active

    def alive_reactors(self) -> List[Reactor]:
        return [r for r in self.reactors if not r.crashed]

    def reactor_for(self, ssd_index: int) -> Reactor:
        if not 0 <= ssd_index < len(self._assignment):
            raise ConfigurationError(f"no SSD {ssd_index} in reactor map")
        return self.reactors[self._assignment[ssd_index]]

    @property
    def num_reactors(self) -> int:
        return len(self.reactors)

    def ssds_on_reactor(self, reactor_id: int) -> int:
        return sum(1 for r in self._assignment if r == reactor_id)

    def total_requests(self) -> float:
        return sum(reactor.requests.total for reactor in self.reactors)


class ReactorSupervisor:
    """Passive stall/crash detector driving failover for a reactor pool.

    Every ``check_interval`` the supervisor scans the pool: a reactor
    that is busy (slot held or waiters queued) but has made no progress
    for longer than ``stall_threshold`` is treated as stalled; one whose
    ``crashed`` flag is already set (an injected hard crash) is treated
    as dead.  Either way ``on_failover(reactor_id)`` runs once — the
    driver's failover re-homes the reactor's SSDs and rescues its
    waiters.  Detection is purely observational: no probe work is
    charged to any reactor, so a fault-free run is undisturbed apart
    from the supervisor's own timer events.

    The watch loop keeps a run-to-exhaustion simulation alive; call
    :meth:`stop` (or run with ``until=``) when the workload is done.
    """

    def __init__(
        self,
        pool: ReactorPool,
        on_failover: Callable[[int], None],
        check_interval: float = 1e-3,
        stall_threshold: float = 5e-3,
    ):
        self.env = pool.env
        self.pool = pool
        self.on_failover = on_failover
        self.check_interval = check_interval
        self.stall_threshold = stall_threshold
        self.stalls_detected = Counter(self.env)
        self.failovers = Counter(self.env)
        self._handled: set = set()
        self._stopped = False
        self._proc = self.env.process(self._watch())

    def stop(self) -> None:
        """Stop watching after the in-flight check interval expires."""
        self._stopped = True

    def _watch(self) -> Generator:
        while not self._stopped:
            yield self.env.timeout(self.check_interval)
            if self._stopped:
                return
            for reactor in self.pool.reactors:
                rid = reactor.reactor_id
                if rid in self._handled:
                    if not reactor.crashed:
                        # revived (and remapped back in) — watch it again
                        self._handled.discard(rid)
                    continue
                if reactor.crashed:
                    self._handled.add(rid)
                    self.failovers.add()
                    self.on_failover(rid)
                    continue
                serial = reactor._serial
                busy = serial.count or serial.queued
                if not busy:
                    continue
                stale = self.env.now - reactor.last_progress
                if stale > self.stall_threshold:
                    self.stalls_detected.add()
                    tracer = self.env.tracer
                    if tracer.enabled:
                        tracer.instant(
                            "reactor_stall_detected",
                            reactor=rid,
                            stale_for=stale,
                        )
                    self._handled.add(rid)
                    self.failovers.add()
                    self.on_failover(rid)
