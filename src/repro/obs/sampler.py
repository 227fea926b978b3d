"""Sim-clock-driven metrics sampling into an in-memory time series.

The :class:`MetricsSampler` is a pure observer process: every
``interval`` simulated seconds it *pulls* the live state of the
subsystems handed to it — queue-pair occupancy, reactor busy fraction
and crash flags, admission in-flight work, breaker/watchdog state,
retry/shed counts, GPU cache and remote tier — into the metrics
registry, then appends a flattened snapshot to a bounded in-memory
``history``.

Perturbation budget: the sampler's only interaction with the simulation
is its own timer event, which shifts event *ids* but never the relative
order of anything else at the same instant; every read is plain
attribute access.  ``tests/test_obs_metrics_sampler.py`` pins down that
an instrumented run is bit-identical in simulated time to a bare one.

The sampling loop would keep a run-to-exhaustion simulation alive
forever, so — like :class:`~repro.spdk.reactor.ReactorSupervisor` —
call :meth:`stop` when the workload is done, or drive the run with
``until=``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.metrics import Metrics

#: numeric encoding of :class:`~repro.reliability.health.HealthState`
#: values for the ``ssd_health_state`` gauge (ordered by severity)
HEALTH_CODES = {"healthy": 0, "degraded": 1, "tripped": 2, "offline": 3}


class MetricsSampler:
    """Periodic pull-sampling of the control plane into a time series.

    Parameters
    ----------
    metrics:
        The recording :class:`~repro.obs.metrics.Metrics` bundle
        (``install_metrics(env)``'s return value).
    interval:
        Simulated seconds between samples.
    manager:
        A :class:`~repro.core.control.CamManager`; its driver,
        reliability bundle, admission controller and supervisor are
        derived automatically (explicit keywords override).
    driver / reliability / admission:
        Individually attached sources for workloads that bypass the
        manager (raw :class:`~repro.spdk.driver.SpdkDriver` runs, the
        kernel stacks).
    gpu_cache:
        A :class:`~repro.cache.gpucache.GpuCache` to pull the
        ``cam_gpucache_*`` families from (the GPU cache also pushes on
        its own hot path; the pull keeps snapshots fresh between
        accesses).
    net:
        A disaggregated-tier source to pull the ``cam_net_*`` families
        from — anything with a ``publish()`` method: a
        :class:`~repro.net.tiered.TieredBackend` (cascades into its
        remote backend and every fabric link), a
        :class:`~repro.net.remote.RemoteFlashBackend`, or a bare
        :class:`~repro.net.fabric.FabricLink`.
    max_samples:
        History ring size; older samples fall off the front.
    autostart:
        Start the sampling process immediately (default).  Pass
        ``False`` to sample manually via :meth:`sample_now` only.
    """

    def __init__(
        self,
        metrics: Metrics,
        interval: float = 100e-6,
        manager=None,
        driver=None,
        reliability=None,
        admission=None,
        gpu_cache=None,
        net=None,
        max_samples: int = 4096,
        autostart: bool = True,
    ):
        if not metrics.enabled:
            raise ConfigurationError(
                "MetricsSampler needs a recording Metrics bundle; "
                "call install_metrics(env) first"
            )
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval}")
        if max_samples < 1:
            raise ConfigurationError("max_samples must be >= 1")
        self.metrics = metrics
        self.env = metrics.env
        self.interval = interval
        self.manager = manager
        self.driver = driver or (manager.driver if manager else None)
        self.reliability = reliability or (
            manager.reliability if manager else None
        )
        self.admission = admission or (
            manager.admission if manager else None
        )
        self.gpu_cache = gpu_cache
        self.net = net
        #: ``(sim_time, flat_snapshot)`` ring — the live series the SLO
        #: monitor and cam-top read
        self.history: deque = deque(maxlen=max_samples)
        #: callables invoked as ``listener(time, snapshot)`` per sample
        self.listeners: List[Callable] = []
        self.samples_taken = 0
        self._stopped = False
        #: per-reactor busy-seconds baseline for the windowed fraction
        self._busy_mark: Dict[int, float] = {}
        self._last_sample_time = self.env.now
        self._register()
        self._proc = (
            self.env.process(self._run()) if autostart else None
        )

    # -- registry wiring ------------------------------------------------
    def _register(self) -> None:
        r = self.metrics.registry

        def gauge(name, help="", unit="", labels=()):
            family = r.get(name)
            return family if family is not None else r.gauge(
                name, help=help, unit=unit, labels=labels
            )

        def counter(name, help="", labels=()):
            family = r.get(name)
            return family if family is not None else r.counter(
                name, help=help, labels=labels
            )

        self._g_busy = gauge(
            "reactor_busy_fraction",
            help="busy fraction over the last sample window — the "
                 "paper's compute/IO-ratio core-adjustment signal",
            labels=("reactor",),
        )
        self._g_crashed = gauge(
            "reactor_crashed", help="1 while the reactor is offline",
            labels=("reactor",),
        )
        self._c_reactor_requests = counter(
            "reactor_requests_total",
            help="requests charged to each reactor", labels=("reactor",),
        )
        # already registered when a Metrics bundle pre-created it; the
        # pull below keeps the gauge fresh even between resize pushes
        self._g_active_cores = gauge(
            "cam_active_cores",
            help="reactors currently in the active window (the paper's "
                 "N/4..N/2 elastic core count)",
        )
        self._g_alive = gauge(
            "cam_alive_reactors",
            help="reactors not currently crashed (any window)",
        )
        self._g_sq = gauge(
            "ssd_sq_occupancy", help="submission-queue entries in flight",
            labels=("ssd",),
        )
        self._g_cq = gauge(
            "ssd_cq_occupancy", help="unreaped completion-queue entries",
            labels=("ssd",),
        )
        self._g_inflight = gauge(
            "ssd_inflight_commands",
            help="submitted-but-uncompleted commands", labels=("ssd",),
        )
        self._c_driver_requests = counter(
            "spdk_requests_total", help="requests the driver completed",
        )
        self._c_driver_bytes = counter(
            "spdk_bytes_total", help="bytes the driver completed",
        )
        self._c_duplicates = counter(
            "spdk_duplicate_completions_total",
            help="chaos invariant: requests observed settling twice",
        )
        self._g_health = gauge(
            "ssd_health_state",
            help="0 healthy / 1 degraded / 2 tripped / 3 offline",
            labels=("ssd",),
        )
        self._c_trips = counter(
            "breaker_trips_total", help="circuit breakers opened",
        )
        self._c_resets = counter(
            "breaker_resets_total", help="circuit breakers closed again",
        )
        self._c_retries = counter(
            "reliability_retries_total", help="device attempts retried",
        )
        self._c_fail_fasts = counter(
            "reliability_fail_fasts_total",
            help="requests refused by an open breaker",
        )
        self._c_watchdog = counter(
            "watchdog_timeouts_total", help="completion deadlines fired",
        )
        self._g_adm_reqs = gauge(
            "admission_inflight_requests",
            help="requests currently admitted",
        )
        self._g_adm_bytes = gauge(
            "admission_inflight_bytes", help="bytes currently admitted",
            unit="bytes",
        )
        self._g_adm_util = gauge(
            "admission_utilization",
            help="fraction of the tighter in-flight bound in use",
        )
        self._c_admitted = counter(
            "admission_admitted_total", help="requests admitted",
        )
        self._c_shed = counter(
            "admission_shed_total",
            help="requests shed with OverloadError",
        )
        self._g_dropped_spans = gauge(
            "tracer_dropped_spans",
            help="spans evicted from the tracer ring buffer",
        )
        self._g_trace_active = gauge(
            "trace_active_contexts",
            help="request contexts minted but not yet finished",
        )
        self._g_trace_done = gauge(
            "trace_completed_requests",
            help="request contexts finished since tracing started",
        )
        self._g_trace_exemplars = gauge(
            "trace_exemplar_count",
            help="histogram children currently carrying a trace exemplar",
        )
        self._g_inbox = gauge(
            "cam_inbox_depth", help="doorbell batches awaiting the poller",
        )
        self._c_supervisor_stalls = counter(
            "supervisor_stalls_detected_total",
            help="reactor stalls the supervisor detected",
        )
        self._c_supervisor_failovers = counter(
            "supervisor_failovers_total",
            help="failovers the supervisor initiated",
        )

    # -- sampling -------------------------------------------------------
    def stop(self) -> None:
        """Stop after the in-flight interval expires (lets a
        run-to-exhaustion simulation terminate)."""
        self._stopped = True

    def _run(self):
        while not self._stopped:
            yield self.env.timeout(self.interval)
            if self._stopped:
                return
            self.sample_now()

    def sample_now(self) -> Tuple[float, Dict[str, object]]:
        """Pull every attached source into the registry and record one
        history sample.  Safe to call manually (e.g. once after a run
        finished) whether or not the periodic process is running."""
        now = self.env.now
        window = now - self._last_sample_time
        driver = self.driver
        if driver is not None:
            for reactor in driver.pool.reactors:
                rid = reactor.reactor_id
                busy = reactor.busy_seconds
                delta = busy - self._busy_mark.get(rid, 0.0)
                self._busy_mark[rid] = busy
                fraction = (
                    min(1.0, delta / window) if window > 0 else 0.0
                )
                self._g_busy.labels(rid).set(fraction)
                self._g_crashed.labels(rid).set(
                    1.0 if reactor.crashed else 0.0
                )
                self._c_reactor_requests.labels(rid).set_total(
                    reactor.requests.total
                )
            for handle in driver._handles:
                qp = handle.queue_pair
                sid = handle.ssd_index
                self._g_sq.labels(sid).set(qp.sq_occupancy)
                self._g_cq.labels(sid).set(qp.cq_occupancy)
                self._g_inflight.labels(sid).set(qp.inflight)
            self._c_driver_requests.child().set_total(
                driver.requests_done.total
            )
            self._c_driver_bytes.child().set_total(
                driver.bytes_done.total
            )
            self._c_duplicates.child().set_total(
                driver.duplicate_completions
            )
            self._g_active_cores.child().set(driver.pool.active_count)
            self._g_alive.child().set(len(driver.pool.alive_reactors()))
            supervisor = driver.supervisor
            if supervisor is not None:
                self._c_supervisor_stalls.child().set_total(
                    supervisor.stalls_detected.total
                )
                self._c_supervisor_failovers.child().set_total(
                    supervisor.failovers.total
                )
        reliability = self.reliability
        if reliability is not None:
            for ssd_id, state in reliability.health.snapshot().items():
                self._g_health.labels(ssd_id).set(
                    HEALTH_CODES.get(state, 0)
                )
            self._c_trips.child().set_total(
                reliability.health.breaker_trips.total
            )
            self._c_resets.child().set_total(
                reliability.health.breaker_resets.total
            )
            self._c_retries.child().set_total(reliability.retries.total)
            self._c_fail_fasts.child().set_total(
                reliability.fail_fasts.total
            )
            if reliability.watchdog is not None:
                self._c_watchdog.child().set_total(
                    reliability.watchdog.timeouts_fired
                )
        admission = self.admission
        if admission is not None:
            self._g_adm_reqs.child().set(admission.inflight_requests)
            self._g_adm_bytes.child().set(admission.inflight_bytes)
            self._g_adm_util.child().set(admission.utilization())
            self._c_admitted.child().set_total(
                admission.admitted_requests.total
            )
            self._c_shed.child().set_total(admission.shed_requests.total)
        gpu_cache = self.gpu_cache
        if gpu_cache is not None:
            # the GPU cache owns its cam_gpucache_* families; the pull
            # just forces a refresh so snapshots are never stale
            gpu_cache.publish()
        net = self.net
        if net is not None:
            # same deal for the disaggregated tier's cam_net_* families
            net.publish()
        if self.manager is not None:
            self._g_inbox.child().set(len(self.manager._inbox))
        tracer = self.env.tracer
        if tracer.enabled:
            self._g_dropped_spans.child().set(tracer.dropped_spans)
            self._g_trace_active.child().set(tracer.contexts_active)
            self._g_trace_done.child().set(tracer.contexts_completed)
            self._g_trace_exemplars.child().set(
                len(self.metrics.registry.exemplars())
            )

        snapshot = self.metrics.registry.snapshot()
        sample = (now, snapshot)
        self.history.append(sample)
        self.samples_taken += 1
        self._last_sample_time = now
        for listener in self.listeners:
            listener(now, snapshot)
        return sample

    # -- history access -------------------------------------------------
    def series(self, key: str) -> List[Tuple[float, object]]:
        """The ``(time, value)`` series for one flattened snapshot key
        (as produced by :meth:`MetricsRegistry.snapshot`), skipping
        samples from before the key first appeared."""
        return [
            (t, snap[key]) for t, snap in self.history if key in snap
        ]

    def latest(self) -> Optional[Tuple[float, Dict[str, object]]]:
        return self.history[-1] if self.history else None

    def __repr__(self) -> str:
        return (
            f"<MetricsSampler interval={self.interval} "
            f"samples={self.samples_taken}>"
        )


def install_sampler(metrics: Metrics, **kwargs) -> MetricsSampler:
    """Convenience: build a sampler bound to ``metrics``."""
    return MetricsSampler(metrics, **kwargs)
