"""GPU-memory cache tier over the SSD array.

BaM keeps a software-managed cache of fixed-size lines in GPU DRAM so
repeat accesses never leave the GPU (SNIPPETS.md snippets 1-2); CAM's
related-work complaint about host-side caches is that they "focus on
utilizing CPU memory ... without considering the SSD access process".
:class:`GpuCache` composes the two ideas: cache lines live in **GPU**
memory in front of any :class:`~repro.backends.base.StorageBackend` or
:class:`~repro.core.api.CamDeviceAPI` path, so

* a **hit** costs one HBM crossing (~40 ns for a 64 KiB line) instead of
  an SSD round trip (~100 us), and
* a **miss** rides the unchanged asynchronous CAM path — including any
  speculative lines the per-consumer readahead detector
  (:mod:`repro.cache.readahead`) wants fetched alongside.

The cache is planned/committed in two phases so the fetch itself stays
on the caller's I/O path (and therefore under admission control,
reliability and the elastic controller, unchanged):

1. :meth:`access_batch` partitions a demand access into hits, misses
   and readahead candidates and marks the misses in flight;
2. the caller fetches the missing + speculative LBAs however it likes
   (one CAM batch, per-request backend calls, ...);
3. :meth:`commit_demand` / :meth:`commit_speculative` admit the landed
   lines (or :meth:`abort` on failure).

Counters are plain integers and the planning phase never touches the
event heap, so a run whose cache is only *observed* (metrics, sampler)
stays bit-identical to an uninstrumented one; runs where the cache is on
the data path differ, which is the point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.cache.readahead import ReadaheadConfig, ReadaheadStream
from repro.cache.residency import Residency, integer_at_least, pages_of
from repro.errors import ConfigurationError
from repro.hw.platform import Platform


class CachePlan:
    """One planned access: the hit/miss/readahead partition.

    ``hit_lbas``/``missing_lbas``/``speculative_lbas`` are what the
    caller acts on; the line lists are the cache's own bookkeeping.
    """

    __slots__ = (
        "consumer", "hit_lbas", "missing_lbas", "speculative_lbas",
        "hit_lines", "missing_lines", "speculative_lines",
    )

    def __init__(self, consumer):
        self.consumer = consumer
        self.hit_lbas: List[int] = []
        self.missing_lbas: List[int] = []
        self.speculative_lbas: List[int] = []
        self.hit_lines: List[int] = []
        self.missing_lines: List[int] = []
        self.speculative_lines: List[int] = []

    def __repr__(self) -> str:
        return (
            f"<CachePlan consumer={self.consumer} "
            f"hits={len(self.hit_lines)} misses={len(self.missing_lines)} "
            f"readahead={len(self.speculative_lines)}>"
        )


class GpuCache:
    """Fixed-size cache lines in GPU DRAM, replaced least recently used
    first, with a per-consumer readahead prefetcher."""

    def __init__(
        self,
        platform: Platform,
        capacity_bytes: int,
        line_bytes: int = 4096,
        readahead: Union[bool, ReadaheadConfig, None] = True,
    ):
        block = platform.config.ssd.block_size
        line_bytes = integer_at_least("line_bytes", line_bytes)
        if line_bytes < block or line_bytes % block:
            raise ConfigurationError(
                f"line_bytes {line_bytes} must be a multiple of the SSD "
                f"block size {block}"
            )
        capacity_bytes = integer_at_least(
            "capacity_bytes", capacity_bytes, minimum=line_bytes
        )
        self.platform = platform
        self.env = platform.env
        self.line_bytes = line_bytes
        self.capacity_lines = capacity_bytes // line_bytes
        self._block = block
        self._lbas_per_line = line_bytes // block
        #: resident lines, least recently used first
        self.residency = Residency(self.capacity_lines)
        if readahead is True:
            readahead = ReadaheadConfig()
        elif readahead is False:
            readahead = None
        self.readahead_config: Optional[ReadaheadConfig] = readahead
        #: per-consumer detector state (created lazily per stream)
        self._streams: Dict[object, ReadaheadStream] = {}
        #: line -> owning stream for speculative fetches, ``None`` for
        #: demand fetches, while the fetch is in flight
        self._inflight: Dict[int, Optional[ReadaheadStream]] = {}
        #: resident speculative lines that no demand access used yet
        self._speculative: Dict[int, Optional[ReadaheadStream]] = {}
        # plain-int counters: the planning phase must never touch the
        # event heap (bit-identity differentials depend on it)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0
        self.readahead_issued = 0
        self.readahead_used = 0
        #: speculative lines evicted before any demand access used them
        self.readahead_wasted = 0
        self._instruments = None

    # -- geometry -------------------------------------------------------
    def line_of(self, lba: int) -> int:
        return (lba * self._block) // self.line_bytes

    def line_lba(self, line: int) -> int:
        """The LBA a fetch of ``line`` starts at."""
        return line * self._lbas_per_line

    # -- introspection --------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return len(self.residency)

    def is_resident(self, lba: int) -> bool:
        return self.line_of(lba) in self.residency

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def readahead_accuracy(self) -> float:
        return (
            self.readahead_used / self.readahead_issued
            if self.readahead_issued
            else 1.0
        )

    @property
    def throttled_streams(self) -> int:
        return sum(1 for s in self._streams.values() if s.throttled)

    def hit_seconds(self, nbytes: int) -> float:
        """Time to serve ``nbytes`` from GPU DRAM (one HBM crossing)."""
        return nbytes / self.platform.config.gpu.hbm_bandwidth

    def stream(self, consumer) -> ReadaheadStream:
        state = self._streams.get(consumer)
        if state is None:
            config = self.readahead_config or ReadaheadConfig()
            state = self._streams[consumer] = ReadaheadStream(config)
        return state

    # -- planning -------------------------------------------------------
    def _demand_line(self, line: int, plan: CachePlan) -> bool:
        """Route one demand line into the plan; True on a hit."""
        if line in self.residency:
            self.residency.touch(line)
            owner = self._speculative.pop(line, None)
            if owner is not None:
                self.readahead_used += 1
                owner.credit()
            self.hits += 1
            plan.hit_lines.append(line)
            return True
        self.misses += 1
        owner = self._inflight.get(line)
        if owner is not None:
            # the prediction was right, the data just hasn't landed yet:
            # credit the stream, demote the in-flight fetch to demand
            self.readahead_used += 1
            owner.credit()
        self._inflight[line] = None
        plan.missing_lines.append(line)
        return False

    def _speculate(self, plan: CachePlan, predictions, stream) -> None:
        """Filter a stream's predictions down to genuinely new fetches."""
        planned = set(plan.hit_lines) | set(plan.missing_lines)
        planned.update(plan.speculative_lines)
        issued = 0
        for line in predictions:
            if line < 0 or line in planned:
                continue
            if line in self.residency or line in self._inflight:
                continue
            self._inflight[line] = stream
            plan.speculative_lines.append(line)
            plan.speculative_lbas.append(self.line_lba(line))
            planned.add(line)
            issued += 1
        if issued:
            stream.charge(issued)
            self.readahead_issued += issued

    def access_batch(
        self, lbas: Sequence[int], granularity: Optional[int] = None,
        consumer=0, trace_ctx=None,
    ) -> CachePlan:
        """Plan a batch of fixed-granularity accesses (one line each).

        Every item must fit inside a single cache line — the natural
        shape when ``line_bytes`` equals the workload's I/O granularity
        (KV blocks, feature vectors).  Returns the plan; fetch its
        missing and speculative LBAs and then :meth:`commit`.
        """
        if granularity is None:
            granularity = self.line_bytes
        granularity = integer_at_least("batch granularity", granularity)
        if granularity > self.line_bytes:
            raise ConfigurationError(
                f"batch granularity {granularity} does not fit the "
                f"{self.line_bytes}-byte cache line"
            )
        plan = CachePlan(consumer)
        detector = (
            self.stream(consumer) if self.readahead_config else None
        )
        predictions: List[int] = []
        for lba in lbas:
            span = pages_of(lba, granularity, self._block, self.line_bytes)
            if len(span) != 1:
                raise ConfigurationError(
                    f"batch item at lba {lba} crosses a cache-line "
                    f"boundary ({granularity}B vs {self.line_bytes}B "
                    "lines)"
                )
            line = span[0]
            if self._demand_line(line, plan):
                plan.hit_lbas.append(lba)
            else:
                plan.missing_lbas.append(lba)
            if detector is not None:
                predictions.extend(detector.observe(line))
        if detector is not None and predictions:
            self._speculate(plan, predictions, detector)
        if trace_ctx is not None:
            # zero-duration marker: ties the hit/miss split of this
            # access to the originating request's causal trace
            trace_ctx.instant(
                "gpucache_access",
                hits=len(plan.hit_lbas),
                misses=len(plan.missing_lbas),
                speculative=len(plan.speculative_lbas),
            )
        self._publish()
        return plan

    # -- commitment -----------------------------------------------------
    def _admit(self, line: int, stream=None) -> None:
        already = line in self.residency
        evicted = self.residency.admit(line)
        if stream is not None and not already:
            self._speculative[line] = stream
        elif stream is None:
            self._speculative.pop(line, None)
        for victim in evicted:
            if self._speculative.pop(victim, None) is not None:
                self.readahead_wasted += 1
        self.evictions += len(evicted)

    def commit_demand(self, plan: CachePlan) -> None:
        """The plan's demand misses landed; admit them."""
        for line in plan.missing_lines:
            self._inflight.pop(line, None)
            self._admit(line)
        self._publish()

    def commit_speculative(self, plan: CachePlan) -> None:
        """The plan's readahead lines landed; admit them (still marked
        speculative until a demand access uses them)."""
        for line in plan.speculative_lines:
            owner = self._inflight.pop(line, None)
            self._admit(line, stream=owner)
        self._publish()

    def commit(self, plan: CachePlan) -> None:
        """Demand and speculative lines landed together (one batch)."""
        self.commit_demand(plan)
        self.commit_speculative(plan)

    def abort(self, plan: CachePlan) -> None:
        """The fetch failed or was shed; clear the in-flight marks.

        Already-charged readahead counts stay charged — a speculative
        fetch that never lands is exactly the waste the accuracy loop
        should see.
        """
        self.abort_demand(plan)
        self.abort_speculative(plan)

    def abort_demand(self, plan: CachePlan) -> None:
        """Only the demand fetch failed (speculation, if any, is a
        separate process that settles its own lines)."""
        for line in plan.missing_lines:
            self._inflight.pop(line, None)
        self._publish()

    def abort_speculative(self, plan: CachePlan) -> None:
        for line in plan.speculative_lines:
            self._inflight.pop(line, None)
        self._publish()

    def fill(
        self, lbas: Sequence[int], granularity: Optional[int] = None
    ) -> None:
        """Admit data *produced on the GPU* (the write-back path).

        Freshly written lines are by definition in GPU memory, so the
        cache admits them without hit/miss accounting; a later read is
        then a hit instead of an SSD round trip.  Only lines fully
        covered by the write are admitted — a partial write of a
        non-resident line would leave the rest of the line stale.
        """
        granularity = (
            self.line_bytes if granularity is None
            else integer_at_least("fill granularity", granularity)
        )
        for lba in lbas:
            start = lba * self._block
            for line in pages_of(lba, granularity, self._block,
                                 self.line_bytes):
                line_start = line * self.line_bytes
                covered = (
                    start <= line_start
                    and start + granularity >= line_start + self.line_bytes
                )
                if covered:
                    self._admit(line)
                    self.fills += 1
                elif line in self.residency:
                    self.residency.touch(line)
        self._publish()

    # -- telemetry ------------------------------------------------------
    def publish(self) -> None:
        """Force a registry refresh (the sampler's pull hook)."""
        self._publish()

    def _publish(self) -> None:
        """Mirror the counters into the live metrics registry (same
        idiom as :meth:`CachedBackend._publish`: pure registry
        arithmetic, guarded on ``metrics.enabled``)."""
        metrics = self.env.metrics
        if not metrics.enabled:
            return
        registry = metrics.registry
        if self._instruments is None or self._instruments[0] is not registry:
            specs = (
                ("cam_gpucache_hits_total", "counter",
                 "GPU-cache lines served from GPU DRAM"),
                ("cam_gpucache_misses_total", "counter",
                 "GPU-cache lines fetched from the storage path"),
                ("cam_gpucache_hit_rate", "gauge",
                 "GPU-cache hits / lookups so far"),
                ("cam_gpucache_evictions_total", "counter",
                 "GPU-cache lines evicted"),
                ("cam_gpucache_resident_lines", "gauge",
                 "GPU-cache lines currently resident"),
                ("cam_gpucache_readahead_issued_total", "counter",
                 "speculative lines the readahead prefetcher fetched"),
                ("cam_gpucache_readahead_used_total", "counter",
                 "speculative lines a demand access consumed"),
                ("cam_gpucache_readahead_wasted_total", "counter",
                 "speculative lines evicted before any use"),
                ("cam_gpucache_readahead_accuracy", "gauge",
                 "readahead used / issued so far"),
                ("cam_gpucache_throttled_streams", "gauge",
                 "consumer streams currently in readahead cooldown"),
            )
            children = []
            for name, kind, help_text in specs:
                family = registry.get(name)
                if family is None:
                    family = registry.register(name, kind, help=help_text)
                children.append(family.child())
            self._instruments = (registry, *children)
        (_, hits, misses, hit_rate, evictions, resident, ra_issued,
         ra_used, ra_wasted, ra_accuracy, throttled) = self._instruments
        hits.set_total(self.hits)
        misses.set_total(self.misses)
        hit_rate.set(self.hit_rate())
        evictions.set_total(self.evictions)
        resident.set(self.resident_lines)
        ra_issued.set_total(self.readahead_issued)
        ra_used.set_total(self.readahead_used)
        ra_wasted.set_total(self.readahead_wasted)
        ra_accuracy.set(self.readahead_accuracy())
        throttled.set(self.throttled_streams)

    def __repr__(self) -> str:
        readahead = (
            "off" if self.readahead_config is None
            else f"depth={self.readahead_config.depth}"
        )
        return (
            f"<GpuCache {self.resident_lines}/{self.capacity_lines} x "
            f"{self.line_bytes}B lines, readahead={readahead}, "
            f"hit_rate={self.hit_rate():.2f}>"
        )
