"""Typed live metrics for the simulation (ISSUE 5 tentpole).

A :class:`MetricsRegistry` holds typed instrument *families* — Counter,
Gauge and Histogram — keyed by a small label set (``ssd``, ``reactor``,
``op``, ``stack``).  The :class:`Metrics` bundle attaches a registry to
the :class:`~repro.sim.core.Environment` (mirroring the tracer) and
pre-registers the instruments the control planes push into on their hot
paths; everything else is *pulled* by the
:class:`~repro.obs.sampler.MetricsSampler`, which periodically snapshots
queue depths, reactor busy fractions, admission occupancy, breaker state
and retry/shed counts into an in-memory time series.

Design constraints (mirroring the tracer's):

* **Zero cost when disabled.**  Every environment starts with the shared
  :data:`NULL_METRICS`; instrumented code guards pushes with
  ``if metrics.enabled``, so metrics-off costs one attribute test.
* **Pure observation.**  Instrument updates are plain Python arithmetic —
  no events, no processes, no simulated time.  Enabling metrics must
  leave simulated timestamps bit-identical
  (``tests/test_obs_metrics_sampler.py`` pins this down).
* **Bounded cardinality.**  A labeled family accepts at most
  ``max_series`` distinct label sets; overflow collapses into a single
  ``_overflow`` series and is counted, never raised mid-run.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: the label value an over-cardinality series collapses into
OVERFLOW_LABEL = "_overflow"

#: default per-family cap on distinct label sets
DEFAULT_MAX_SERIES = 256


def default_latency_buckets(
    start: float = 1e-6, factor: float = 2.0, count: int = 22
) -> Tuple[float, ...]:
    """Fixed log-spaced latency bucket bounds in seconds.

    The default ladder spans 1 us .. ~4 s in x2 steps — wide enough for
    a single NVMe command and for a multi-GiB batch; observations at or
    above the top bound land in the implicit ``+Inf`` bucket.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ConfigurationError(
            f"invalid bucket ladder start={start} factor={factor} "
            f"count={count}"
        )
    return tuple(start * factor ** i for i in range(count))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter increments must be >= 0, got {amount}"
            )
        self.value += amount

    def set_total(self, value: float) -> None:
        """Pull-style update to an absolute total (sampler use).

        Monotonicity is enforced: going backwards means the caller
        sampled a *different* underlying counter (or one that was
        reset), which would corrupt every rate computed downstream.
        """
        if value < self.value:
            raise ConfigurationError(
                f"counter went backwards: {self.value} -> {value}"
            )
        self.value = value


class Gauge:
    """A point-in-time value that can go up and down."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with log-spaced latency bounds.

    ``bounds`` are inclusive upper bounds; an implicit ``+Inf`` bucket
    catches observations above the top bound, so nothing is ever
    dropped — the top of the ladder just loses resolution.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count",
                 "exemplar_trace_id", "exemplar_value")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        #: one count per bound, plus the trailing +Inf bucket
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        #: exemplar: trace_id of the worst observation seen so far
        #: (links the metric back to the causal trace, ISSUE 10)
        self.exemplar_trace_id: Optional[int] = None
        self.exemplar_value = 0.0

    def observe(self, value: float,
                trace_id: Optional[int] = None) -> None:
        self.sum += value
        self.count += 1
        if trace_id is not None and (
            self.exemplar_trace_id is None or value > self.exemplar_value
        ):
            self.exemplar_trace_id = trace_id
            self.exemplar_value = value
        bounds = self.bounds
        # log-spaced ladders are short (~22): a linear scan beats bisect
        # on constant factors and reads simpler
        for index, bound in enumerate(bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[len(bounds)] += 1

    @property
    def exemplar(self) -> Optional[Tuple[int, float]]:
        """(trace_id, value) of the worst traced observation, if any."""
        if self.exemplar_trace_id is None:
            return None
        return (self.exemplar_trace_id, self.exemplar_value)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (q in [0, 1]) from the buckets.

        Returns the upper bound of the bucket containing the target
        rank; observations in the ``+Inf`` bucket report the top bound
        (the estimate saturates rather than inventing a value).  0.0
        with no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile out of range: {q}")
        if self.count == 0:
            return 0.0
        rank = math.ceil(q * self.count)
        seen = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            seen += bucket_count
            if seen >= rank:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                return self.bounds[index]
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Family:
    """One named metric family: a kind plus labeled child instruments."""

    __slots__ = (
        "name", "kind", "help", "unit", "labelnames", "buckets",
        "max_series", "dropped_series", "_children",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        unit: str = "",
        labelnames: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_series: int = DEFAULT_MAX_SERIES,
    ):
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ConfigurationError(f"invalid label name {label!r}")
        if kind not in ("counter", "gauge", "histogram"):
            raise ConfigurationError(f"unknown metric kind {kind!r}")
        if max_series < 1:
            raise ConfigurationError("max_series must be >= 1")
        self.name = name
        self.kind = kind
        self.help = help
        self.unit = unit
        self.labelnames = tuple(labelnames)
        self.buckets = (
            tuple(buckets) if buckets is not None
            else default_latency_buckets() if kind == "histogram"
            else None
        )
        self.max_series = max_series
        #: label sets collapsed into the ``_overflow`` series
        self.dropped_series = 0
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets)

    def labels(self, *values) -> object:
        """The child instrument for one label-value tuple.

        Values are stringified (``ssd_id``/``reactor_id`` ints come in
        raw).  Past ``max_series`` distinct tuples, new ones collapse
        into a single all-``_overflow`` child and ``dropped_series``
        counts the loss, so a runaway label (e.g. ``lba``) can never
        blow up memory mid-run.
        """
        if len(values) != len(self.labelnames):
            raise ConfigurationError(
                f"{self.name}: expected labels {self.labelnames}, got "
                f"{len(values)} values"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            if (
                len(self._children) >= self.max_series
                and OVERFLOW_LABEL not in key
            ):
                self.dropped_series += 1
                key = (OVERFLOW_LABEL,) * len(self.labelnames)
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make()
                return child
            child = self._children[key] = self._make()
        return child

    def child(self) -> object:
        """The single unlabeled instrument (labelnames must be empty)."""
        if self.labelnames:
            raise ConfigurationError(
                f"{self.name} is labeled by {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    def series(self) -> List[Tuple[Dict[str, str], object]]:
        """Sorted ``(labels_dict, instrument)`` pairs."""
        return [
            (dict(zip(self.labelnames, key)), self._children[key])
            for key in sorted(self._children)
        ]

    def __repr__(self) -> str:
        return (
            f"<Family {self.kind} {self.name} "
            f"{len(self._children)} series>"
        )


class MetricsRegistry:
    """An ordered collection of metric families."""

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES):
        self._families: Dict[str, Family] = {}
        self.max_series = max_series

    def register(
        self,
        name: str,
        kind: str,
        help: str = "",
        unit: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
        max_series: Optional[int] = None,
    ) -> Family:
        if name in self._families:
            raise ConfigurationError(f"metric {name!r} already registered")
        family = Family(
            name, kind, help=help, unit=unit, labelnames=labels,
            buckets=buckets,
            max_series=max_series or self.max_series,
        )
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", unit: str = "",
                labels: Sequence[str] = ()) -> Family:
        return self.register(name, "counter", help, unit, labels)

    def gauge(self, name: str, help: str = "", unit: str = "",
              labels: Sequence[str] = ()) -> Family:
        return self.register(name, "gauge", help, unit, labels)

    def histogram(self, name: str, help: str = "", unit: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> Family:
        return self.register(name, "histogram", help, unit, labels,
                             buckets=buckets)

    def get(self, name: str) -> Optional[Family]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def families(self) -> Iterable[Family]:
        return iter(tuple(self._families.values()))

    def snapshot(self) -> Dict[str, object]:
        """Flat ``name{label=value,...} -> number`` view of everything.

        Histograms flatten to ``_count`` / ``_sum`` / per-``le`` bucket
        entries, matching the exposition names, so the snapshot diffs
        cleanly against a parsed OpenMetrics export.
        """
        out: Dict[str, object] = {}
        for family in self.families():
            for labels, instrument in family.series():
                suffix = "".join(
                    f",{k}={v}" for k, v in sorted(labels.items())
                )
                key = f"{family.name}{{{suffix[1:]}}}" if suffix else (
                    family.name
                )
                if family.kind == "histogram":
                    out[f"{key}:count"] = instrument.count
                    out[f"{key}:sum"] = instrument.sum
                    out[f"{key}:p99"] = instrument.quantile(0.99)
                else:
                    out[key] = instrument.value
        return out

    def exemplars(self) -> Dict[str, Tuple[int, float]]:
        """``family{labels} -> (trace_id, value)`` for every histogram
        child holding an exemplar (its worst traced observation)."""
        out: Dict[str, Tuple[int, float]] = {}
        for family in self.families():
            if family.kind != "histogram":
                continue
            for labels, instrument in family.series():
                exemplar = instrument.exemplar
                if exemplar is None:
                    continue
                suffix = ",".join(
                    f"{k}={v}" for k, v in sorted(labels.items())
                )
                key = f"{family.name}{{{suffix}}}" if suffix else (
                    family.name
                )
                out[key] = exemplar
        return out

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._families)} families>"


class NullMetrics:
    """The disabled bundle: records nothing, allocates nothing.

    All environments share one instance (:data:`NULL_METRICS`);
    instrumentation points check :attr:`enabled` first, so metrics-off
    costs one attribute read per site.  The push helpers exist (as
    no-ops) so un-guarded call sites still cannot crash.
    """

    enabled = False
    registry = None

    def batch_done(self, op, latency, requests, nbytes, failures,
                   trace_id=None):
        pass

    def request_done(self, kind, latency, trace_id=None):
        pass

    def coalesced_group(self, reactor_id, submitted):
        pass

    def redrive(self, count=1):
        pass

    def failover(self, reactor_id):
        pass

    def core_resize(self, direction, active):
        pass

    def stack_io_done(self, stack, latency):
        pass

    def __repr__(self) -> str:
        return "<NullMetrics>"


#: the shared disabled bundle every Environment starts with
NULL_METRICS = NullMetrics()


class Metrics:
    """The recording bundle: a registry plus the hot-path instruments.

    Control planes push only what cannot be pulled later (latency
    histograms, per-group submission counters); cumulative totals that
    live on the subsystems themselves (``manager.requests_done``,
    ``reliability.retries``, queue-pair occupancy, breaker state) are
    pulled by the :class:`~repro.obs.sampler.MetricsSampler` instead, so
    the hot path stays almost allocation-free.
    """

    enabled = True

    def __init__(self, env, registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.registry = registry or MetricsRegistry()
        r = self.registry
        self.batch_latency = r.histogram(
            "cam_batch_latency_seconds",
            help="doorbell ring -> completion per CAM batch",
            unit="seconds", labels=("op",),
        )
        self.batches = r.counter(
            "cam_batches_total", help="completed CAM batches",
            labels=("op",),
        )
        self.requests = r.counter(
            "cam_requests_total", help="requests in completed batches",
            labels=("op",),
        )
        self.bytes = r.counter(
            "cam_bytes_total", help="bytes moved by completed batches",
            unit="bytes", labels=("op",),
        )
        self.batch_failures = r.counter(
            "cam_batch_failures_total",
            help="requests that failed inside completed batches",
        )
        self.coalesced_groups = r.counter(
            "spdk_coalesced_groups_total",
            help="per-reactor coalesced submission groups walked",
            labels=("reactor",),
        )
        self.coalesced_requests = r.counter(
            "spdk_coalesced_requests_total",
            help="requests submitted through coalesced groups",
            labels=("reactor",),
        )
        self.redrives = r.counter(
            "spdk_redrives_total",
            help="coalesced items peeled off to the per-request path "
                 "(failed CQEs, re-homed SSDs, crashed reactors)",
        )
        self.failovers = r.counter(
            "reactor_failovers_total",
            help="reactors declared dead and failed over",
            labels=("reactor",),
        )
        self.active_cores = r.gauge(
            "cam_active_cores",
            help="reactors currently in the active window (the paper's "
                 "N/4..N/2 elastic core count)",
        )
        self.core_resizes = r.counter(
            "cam_core_resizes_total",
            help="live active-window resizes applied to the reactor pool",
            labels=("direction",),
        )
        self.stack_requests = r.counter(
            "oskernel_requests_total",
            help="requests completed by OS kernel I/O stacks",
            labels=("stack",),
        )
        self.stack_latency = r.histogram(
            "oskernel_io_latency_seconds",
            help="submission -> completion per kernel-stack request",
            unit="seconds", labels=("stack",),
        )
        self.request_latency = r.histogram(
            "cam_request_latency_seconds",
            help="entry-point mint -> finish per causal request context "
                 "(exemplars carry the worst request's trace_id)",
            unit="seconds", labels=("kind",),
        )
        #: bound children of the per-batch and per-group families,
        #: keyed by ``op`` and by reactor id (see :meth:`_bound`)
        self._batch_children: Dict[str, tuple] = {}
        self._group_children: Dict[int, tuple] = {}

    @staticmethod
    def _bound(cache: dict, value, *families: Family) -> tuple:
        """The children of ``families`` for label ``value``, memoised.

        A child that collapsed into the ``_overflow`` series is returned
        but not memoised, so every later push still goes through
        :meth:`Family.labels` and is counted in ``dropped_series``.
        """
        dropped = [family.dropped_series for family in families]
        children = tuple(family.labels(value) for family in families)
        if all(
            family.dropped_series == before
            for family, before in zip(families, dropped)
        ):
            cache[value] = children
        return children

    # -- push helpers (hot path; callers guard with ``if enabled``) -----
    def batch_done(
        self, op: str, latency: float, requests: int, nbytes: int,
        failures: int, trace_id: Optional[int] = None,
    ) -> None:
        children = self._batch_children.get(op)
        if children is None:
            children = self._bound(
                self._batch_children, op, self.batch_latency,
                self.batches, self.requests, self.bytes,
            )
        latency_child, batches, requests_child, bytes_child = children
        latency_child.observe(latency, trace_id=trace_id)
        batches.inc()
        requests_child.inc(requests)
        bytes_child.inc(nbytes)
        if failures:
            self.batch_failures.child().inc(failures)

    def request_done(
        self, kind: str, latency: float,
        trace_id: Optional[int] = None,
    ) -> None:
        self.request_latency.labels(kind).observe(
            latency, trace_id=trace_id
        )

    def coalesced_group(self, reactor_id: int, submitted: int) -> None:
        children = self._group_children.get(reactor_id)
        if children is None:
            children = self._bound(
                self._group_children, reactor_id, self.coalesced_groups,
                self.coalesced_requests,
            )
        groups, requests = children
        groups.inc()
        requests.inc(submitted)

    def redrive(self, count: int = 1) -> None:
        self.redrives.child().inc(count)

    def failover(self, reactor_id: int) -> None:
        self.failovers.labels(reactor_id).inc()

    def core_resize(self, direction: str, active: int) -> None:
        self.core_resizes.labels(direction).inc()
        self.active_cores.child().set(active)

    def stack_io_done(self, stack: str, latency: float) -> None:
        self.stack_requests.labels(stack).inc()
        self.stack_latency.labels(stack).observe(latency)

    def __repr__(self) -> str:
        return f"<Metrics {self.registry!r}>"


def install_metrics(
    env, registry: Optional[MetricsRegistry] = None
) -> Metrics:
    """Attach a recording :class:`Metrics` bundle to ``env``."""
    metrics = Metrics(env, registry=registry)
    env.metrics = metrics
    return metrics


def uninstall_metrics(env) -> None:
    """Restore the zero-cost :data:`NULL_METRICS` on ``env``."""
    env.metrics = NULL_METRICS
