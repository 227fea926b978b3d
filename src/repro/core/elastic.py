"""Elastic core control: the paper's dynamic core adjustment (Challenge 1).

Paper Section III-A: N SSDs need between N/4 and N/2 manager cores
depending on the workload's compute/I-O ratio, which CAM reads from
"the relative time of computation and I/O in the last batch".

* :class:`ElasticCorePolicy` — a *pure*, deterministic decision
  function.  Given one pressure observation it returns a target core
  count.  Band targets with hysteresis (grow above ``high_water``,
  shrink below ``low_water``, hold in between), a shrink-side cooldown
  so a grow is never immediately undone, hard clamping to the paper's
  [N/4, N/2] band, and an SLO guardrail that vetoes shrinking while an
  objective is violated.  Purity makes the policy property-testable
  (``tests/test_elastic_policy.py``).
* :class:`ElasticController` — a manager's one core-sizing loop (a
  second on the same manager raises
  :class:`~repro.errors.ConfigurationError` until the first is stopped,
  so two loops cannot undo each other's resizes).
  :meth:`~ElasticController.observe` takes the paper's per-batch
  signal, a batch's I/O share, which ``CamContext(autotune=True)``
  feeds at each ``prefetch_synchronize`` to a controller with no
  sampler, no cooldown and the band [:data:`BATCH_LOW_WATER`,
  :data:`BATCH_HIGH_WATER`]; :meth:`~ElasticController.tick` takes the
  active reactors' busy fractions from a
  :class:`~repro.obs.sampler.MetricsSampler` every ``interval``.
  Either way non-hold decisions apply live through
  :meth:`~repro.core.control.CamManager.set_active_reactors` — the same
  SSD re-homing path failover uses, so resizes never drop in-flight
  charges: de-activated reactors drain what they hold, new work lands
  on the shrunk window.

Interplay with failover: both the controller and the
:class:`~repro.spdk.reactor.ReactorSupervisor` funnel through
``ReactorPool.remap``, which skips crashed reactors and drafts
survivors when a whole window is dead.  The controller additionally
(a) measures busy pressure only over *alive* reactors in the active
window, and (b) swallows :class:`~repro.errors.ReactorOfflineError`
from a resize attempt (an all-dead pool is the supervisor's problem,
not the sizing loop's).  ``tests/test_chaos.py`` drives resizes
concurrently with stalls and crashes to pin the composition down.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass
from typing import Deque, Generator, List, Optional

from repro.errors import ConfigurationError, ReactorOfflineError

_BUSY_KEY_RE = re.compile(r"^reactor_busy_fraction\{reactor=(\d+)\}$")

#: the per-batch signal's band on a batch's I/O share: shrink while I/O
#: takes under 0.85x the compute time, grow once it outlasts compute
BATCH_LOW_WATER = 0.85 / 1.85
BATCH_HIGH_WATER = 1.0 / 2.0


@dataclass(frozen=True)
class CoreDecision:
    """One policy output: the target core count and why."""

    cores: int
    action: str  # "grow", "shrink", "hold" or "clamp"
    reason: str = ""
    pressure: Optional[float] = None

    @property
    def changed(self) -> bool:
        return self.action in ("grow", "shrink", "clamp")


@dataclass(frozen=True)
class ElasticCorePolicy:
    """Pure decision function over a scalar pressure signal in [0, 1].

    Parameters
    ----------
    num_ssds:
        N — fixes the paper band [ceil(N/4), ceil(N/2)] via the
        ``*_cores_per_ssd`` ratios.
    low_water / high_water:
        Pressure band targets.  Above ``high_water`` the policy grows,
        below ``low_water`` it shrinks, in between it holds — the
        hysteresis gap is what keeps a near-boundary signal from
        flapping every tick.
    cooldown:
        Minimum simulated seconds after *any* core change before the
        policy will shrink again.  Growing is never delayed (overload
        must be answered immediately); shrinking is the reversible,
        deferrable direction, so it pays the cooldown.  This is the
        grow->shrink anti-flap guarantee the property tests pin down.
    step:
        Cores added/removed per decision.

    :meth:`decide` is a pure function of its arguments — no clock, no
    mutation — so arbitrary schedules can be replayed in tests.
    """

    num_ssds: int
    min_cores_per_ssd: float = 0.25
    max_cores_per_ssd: float = 0.5
    low_water: float = 0.35
    high_water: float = 0.80
    cooldown: float = 2e-3
    step: int = 1

    def __post_init__(self):
        if self.num_ssds < 1:
            raise ConfigurationError("need at least one SSD")
        if not 0.0 <= self.low_water <= self.high_water:
            raise ConfigurationError(
                f"band targets must satisfy 0 <= low_water <= "
                f"high_water, got [{self.low_water}, {self.high_water}]"
            )
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be >= 0")
        if self.step < 1:
            raise ConfigurationError("step must be >= 1")
        if not 0 < self.min_cores_per_ssd <= self.max_cores_per_ssd:
            raise ConfigurationError(
                "core ratios must satisfy 0 < min <= max, got "
                f"[{self.min_cores_per_ssd}, {self.max_cores_per_ssd}]"
            )

    @property
    def min_cores(self) -> int:
        return max(1, math.ceil(self.num_ssds * self.min_cores_per_ssd))

    @property
    def max_cores(self) -> int:
        return max(
            self.min_cores,
            math.ceil(self.num_ssds * self.max_cores_per_ssd),
        )

    @property
    def bounds(self) -> tuple:
        return (self.min_cores, self.max_cores)

    def decide(
        self,
        *,
        pressure: Optional[float],
        cores: int,
        now: float = 0.0,
        last_change: Optional[float] = None,
        slo_violated: bool = False,
        min_cores: Optional[int] = None,
        max_cores: Optional[int] = None,
    ) -> CoreDecision:
        """One decision.

        ``pressure`` is the load signal in [0, 1] (``None`` = no fresh
        signal, always a hold).  ``cores`` is the current allocation;
        ``now``/``last_change`` drive the shrink cooldown;
        ``slo_violated`` arms the guardrail veto.  ``min_cores`` /
        ``max_cores`` override the paper band when the physical pool is
        smaller (a manager built with fewer reactors than N/2); the
        effective floor is never above the effective ceiling.
        """
        hi = self.max_cores if max_cores is None else max_cores
        lo = self.min_cores if min_cores is None else min_cores
        if hi < 1:
            raise ConfigurationError(f"max_cores must be >= 1, got {hi}")
        lo = max(1, min(lo, hi))
        clamped = min(max(cores, lo), hi)
        if clamped != cores:
            return CoreDecision(
                clamped, "clamp",
                f"{cores} outside [{lo}, {hi}]", pressure,
            )
        if pressure is None:
            return CoreDecision(clamped, "hold", "no signal", pressure)
        if pressure > self.high_water:
            if clamped >= hi:
                return CoreDecision(
                    clamped, "hold", "at max cores", pressure
                )
            return CoreDecision(
                min(hi, clamped + self.step), "grow",
                f"pressure {pressure:.3f} > {self.high_water}", pressure,
            )
        if pressure < self.low_water:
            if slo_violated:
                return CoreDecision(
                    clamped, "hold", "slo veto", pressure
                )
            if clamped <= lo:
                return CoreDecision(
                    clamped, "hold", "at min cores", pressure
                )
            if (
                last_change is not None
                and self.cooldown > 0
                and now - last_change < self.cooldown
            ):
                return CoreDecision(
                    clamped, "hold", "cooldown", pressure
                )
            return CoreDecision(
                max(lo, clamped - self.step), "shrink",
                f"pressure {pressure:.3f} < {self.low_water}", pressure,
            )
        return CoreDecision(clamped, "hold", "in band", pressure)


class ElasticController:
    """A CAM manager's one core-sizing loop: applies
    :class:`ElasticCorePolicy` decisions.

    Parameters
    ----------
    sampler:
        The live :class:`~repro.obs.sampler.MetricsSampler` whose
        ``history`` ring :meth:`tick` reads (it never samples itself,
        so sampling cadence and control cadence stay independent), or
        ``None`` for a controller fed only through :meth:`observe`.
    manager:
        The :class:`~repro.core.control.CamManager` whose cores it
        sizes, through
        :meth:`~repro.core.control.CamManager.set_active_reactors`.
    policy:
        Defaults to ``ElasticCorePolicy(num_ssds=platform.num_ssds)``.
    interval:
        Simulated seconds between sampler ticks; defaults to
        ``window_samples`` sampler intervals so each tick sees a fresh
        window.
    window_samples:
        Sampler history entries folded into one pressure observation.
    slo_monitor / slo_hold:
        Optional :class:`~repro.obs.slo.SloMonitor`; while any of its
        objectives fired within the last ``slo_hold`` simulated
        seconds, shrink decisions are vetoed (growth is unaffected).
        ``slo_hold`` defaults to the control interval plus the
        monitor's own cooldown, so a sustained breach silenced by the
        monitor's cooldown still vetoes.
    autostart:
        Start the tick loop (with a sampler) immediately; pass ``False``
        to drive ticks manually via :meth:`tick` (the deterministic-test
        mode).

    The tick loop keeps a run-to-exhaustion simulation alive — call
    :meth:`stop` when the workload is done, or run with ``until=``.
    """

    def __init__(
        self,
        sampler,
        manager=None,
        policy: Optional[ElasticCorePolicy] = None,
        interval: Optional[float] = None,
        window_samples: int = 4,
        slo_monitor=None,
        slo_hold: Optional[float] = None,
        max_decisions: int = 4096,
        autostart: bool = True,
    ):
        if manager is None:
            raise ConfigurationError("ElasticController needs a manager")
        if manager.controller is not None:
            raise ConfigurationError(
                "the manager already has a core-sizing loop; a second "
                "would undo its resizes"
            )
        if window_samples < 1:
            raise ConfigurationError("window_samples must be >= 1")
        if max_decisions < 1:
            raise ConfigurationError("max_decisions must be >= 1")
        self.sampler = sampler
        self.manager = manager
        self.env = manager.env
        self.policy = policy or ElasticCorePolicy(
            num_ssds=manager.platform.num_ssds
        )
        self.window_samples = window_samples
        if interval is None and sampler is not None:
            interval = sampler.interval * window_samples
        if interval is not None and interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval}")
        self.interval = interval
        self.slo_monitor = slo_monitor
        if slo_hold is None:
            slo_hold = (interval or 0.0) + (
                slo_monitor.cooldown if slo_monitor is not None else 0.0
            )
        self.slo_hold = slo_hold
        #: bounded log of every decision (for the experiments/tests)
        self.decisions: Deque[tuple] = deque(maxlen=max_decisions)
        self.ticks = 0
        self.resizes = 0
        self.grows = 0
        self.shrinks = 0
        self.vetoes = 0
        self._last_change: Optional[float] = None
        self._stopped = False
        if autostart and sampler is not None:
            self.env.process(self._run())
        manager.controller = self

    # -- lifecycle ------------------------------------------------------
    def stop(self) -> None:
        """Stop and release the manager: the tick loop ends when the
        in-flight interval expires, later steps hold, and another
        controller may then be built on the manager."""
        self._stopped = True
        if self.manager.controller is self:
            self.manager.controller = None

    def _run(self) -> Generator:
        while not self._stopped:
            yield self.env.timeout(self.interval)
            self.tick()  # a hold once stopped

    # -- signal folding -------------------------------------------------
    @property
    def bounds(self) -> tuple:
        """``(min, max)`` cores: the paper band clamped to the pool."""
        hi = min(self.policy.max_cores, self.manager.driver.num_reactors)
        return min(self.policy.min_cores, hi), hi

    def pressure(self) -> Optional[float]:
        """Mean busy fraction of alive active-window reactors over the
        last ``window_samples`` sampler entries (``None`` without a
        sampler or before it has produced anything — a hold)."""
        if self.sampler is None or not self.sampler.history:
            return None
        pool = self.manager.driver.pool
        alive = {
            reactor.reactor_id
            for reactor in pool.reactors[: pool.active_count]
            if not reactor.crashed
        }
        if not alive:
            return None
        window = list(self.sampler.history)[-self.window_samples:]
        means: List[float] = []
        for _, snapshot in window:
            fractions = [
                float(value)
                for key, value in snapshot.items()
                if (match := _BUSY_KEY_RE.match(key))
                and int(match.group(1)) in alive
            ]
            if fractions:
                means.append(sum(fractions) / len(fractions))
        if not means:
            return None
        return sum(means) / len(means)

    # -- the control step ----------------------------------------------
    def tick(self) -> CoreDecision:
        """One control step on the sampler signal; safe to call manually
        (``autostart=False``) for deterministic tests."""
        return self._step(self.pressure())

    def observe(self, compute_time: float, io_time: float) -> CoreDecision:
        """One control step on the paper's per-batch signal: the last
        batch's I/O share ``io / (compute + io)`` (a zero total holds)."""
        if compute_time < 0 or io_time < 0:
            raise ConfigurationError("times must be non-negative")
        total = compute_time + io_time
        return self._step(io_time / total if total > 0 else None)

    def _step(self, pressure: Optional[float]) -> CoreDecision:
        if self._stopped:
            return CoreDecision(self.manager.active_reactors, "hold", "stopped")
        self.ticks += 1
        now = self.env.now
        monitor = self.slo_monitor
        lo, hi = self.bounds
        decision = self.policy.decide(
            pressure=pressure,
            cores=self.manager.active_reactors,
            now=now,
            last_change=self._last_change,
            slo_violated=monitor is not None
            and monitor.violated_within(self.slo_hold, now=now),
            min_cores=lo,
            max_cores=hi,
        )
        if decision.reason == "slo veto":
            self.vetoes += 1
        self.decisions.append((now, decision))
        if decision.changed:
            self._apply(decision)
        return decision

    def _apply(self, decision: CoreDecision) -> None:
        try:
            self.manager.set_active_reactors(decision.cores)
        except ReactorOfflineError:
            # every reactor is down: sizing is moot; failover (the
            # supervisor) owns recovery, the controller just holds
            return
        self._last_change = self.env.now
        self.resizes += 1
        if decision.action == "grow":
            self.grows += 1
        elif decision.action == "shrink":
            self.shrinks += 1

    def __repr__(self) -> str:
        return (
            f"<ElasticController ticks={self.ticks} "
            f"resizes={self.resizes} (+{self.grows}/-{self.shrinks}) "
            f"vetoes={self.vetoes}>"
        )
