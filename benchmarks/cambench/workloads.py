"""The five cambench workloads.

Each workload class builds its system and its inputs from public
``repro`` constructors and one seed in ``__init__`` (the set-up the
benchmark times as ``setup_s``), drives its load in :meth:`run` (the
timed phase), and reads every layer's public counters in
:meth:`outcome` afterwards.  Sizes are keyword arguments so the
self-test can run every workload at a tiny size.

Why each workload exists, and which layers it exercises or bypasses,
is in README.md; each class docstring gives its shape.
"""

from __future__ import annotations

from collections import Counter as Tally
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.backends.base import make_backend
from repro.cache import GpuCache
from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.errors import ReproError, SimulationError
from repro.hw.faults import FaultInjector
from repro.hw.platform import Platform
from repro.net import build_disagg
from repro.obs import install_metrics
from repro.reliability import Reliability
from repro.serving import (
    KvBlockStore,
    KvLayout,
    ServingEngine,
    SessionConfig,
    SessionPool,
)
from repro.units import KiB, MiB
from repro.workloads.gnn.graph import random_power_law_graph
from repro.workloads.gnn.sampling import NeighborSampler
from repro.workloads.trace import TraceReplayer, make_zipfian_trace

PAGE = 4 * KiB
#: LBAs per 4 KiB request (512 B blocks)
PAGE_BLOCKS = 8


def subseeds(seed: int, count: int) -> List[int]:
    """``count`` independent seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


@dataclass
class Outcome:
    """What one timed phase did, read after it ended."""

    #: operations that ended in a typed ``repro.errors`` failure, or
    #: that an invariant violation made untrustworthy
    failed: int
    #: simulated seconds from the start of the timed phase until its
    #: requests were served
    sim_s: float
    #: bytes the workload asked for (speculative fetches excluded)
    demand_bytes: int
    events: int
    #: per-layer simulated metrics, ``name -> value``
    layers: Dict[str, float]
    #: p99 simulated latency of the workload's own request, and the
    #: number of requests it was taken over
    p99_s: float = 0.0
    latency_samples: int = 0
    error_types: Dict[str, int] = field(default_factory=dict)
    #: output checks that failed
    violations: List[str] = field(default_factory=list)


class Workload:
    """Shared bookkeeping: failure accounting and the output checks.

    Subclasses set :attr:`attempted` (operations offered, in their
    unit) during set-up, and append the simulated latency of each
    completed request to :attr:`latencies` unless they pass their own
    percentile to :meth:`_outcome`.
    """

    name = ""

    def __init__(self):
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.latencies: List[float] = []
        self.error_types: Tally = Tally()
        self.violations: List[str] = []

    def _fail(self, error: ReproError, ops: int) -> None:
        if isinstance(error, SimulationError):
            # the engine itself failed (a hang or a broken event): not
            # an operation outcome but an invariant violation
            raise error
        self.failed += ops
        self.error_types[type(error).__name__] += 1

    def _check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def _outcome(self, sim_s, demand_bytes, events, layers,
                 p99_s=None, latency_samples=None) -> Outcome:
        if p99_s is None:
            latency_samples = len(self.latencies)
            p99_s = (
                float(np.quantile(self.latencies, 0.99))
                if self.latencies else 0.0
            )
        attempted = self.attempted
        self._check(
            self.completed + self.failed == attempted,
            f"exactly-once: completed {self.completed} + failed "
            f"{self.failed} != attempted {attempted}",
        )
        self._check(
            layers.get("spdk.duplicate_completions", 0) == 0,
            "SpdkDriver.duplicate_completions != 0",
        )
        failed = attempted if self.violations else self.failed
        return Outcome(
            failed=failed,
            sim_s=sim_s,
            demand_bytes=demand_bytes,
            events=events,
            layers=layers,
            p99_s=p99_s,
            latency_samples=latency_samples,
            error_types=dict(self.error_types),
            violations=list(self.violations),
        )


def layer_counters(
    elapsed: float,
    platforms: Iterable[Platform],
    drivers: Iterable = (),
    busy_base: float = 0.0,
    manager: Optional[CamManager] = None,
    reliability: Optional[Reliability] = None,
    cache: Optional[GpuCache] = None,
) -> Dict[str, float]:
    """The simulated per-layer metrics every workload reports.

    Layers a workload does not use read 0.  Device percentiles are the
    worst device's (the slowest SSD bounds a striped batch).
    """
    ssds = [ssd for platform in platforms for ssd in platform.ssds]
    drivers = list(drivers)
    reactors = [r for driver in drivers for r in driver.pool.reactors]
    busy = sum(r.busy_seconds for r in reactors) - busy_base
    out = {
        "hw.ssd_ops": sum(
            s.reads_completed.total + s.writes_completed.total for s in ssds
        ),
        "hw.ssd_read_p50_us": max(
            s.read_latency.percentile(50) for s in ssds
        ) * 1e6,
        "hw.ssd_read_p99_us": max(
            s.read_latency.percentile(99) for s in ssds
        ) * 1e6,
        "hw.ssd_write_p99_us": max(
            s.write_latency.percentile(99) for s in ssds
        ) * 1e6,
        "hw.media_errors": sum(s.faults_reported for s in ssds),
        "spdk.requests": sum(d.requests_done.total for d in drivers),
        "spdk.reactor_busy_frac": (
            busy / (len(reactors) * elapsed) if reactors and elapsed else 0.0
        ),
        "spdk.duplicate_completions": sum(
            d.duplicate_completions for d in drivers
        ),
        "core.batches": 0,
        "core.batch_io_p50_us": 0.0,
        "core.batch_io_p99_us": 0.0,
        "reliability.retries": 0,
        "reliability.fail_fasts": 0,
        "reliability.breaker_trips": 0,
        "reliability.watchdog_timeouts": 0,
        "cache.hit_rate": 0.0,
        "cache.evictions": 0,
        "cache.readahead_issued": 0,
        "cache.readahead_accuracy": 0.0,
        "serving.turns": 0,
        "serving.tokens_per_s": 0.0,
        "serving.kv_hit_rate": 0.0,
        "serving.kv_evictions": 0,
        "serving.queue_wait_p99_ms": 0.0,
        "serving.ttft_p50_ms": 0.0,
        "serving.ttft_p99_ms": 0.0,
        "serving.ttft_p999_ms": 0.0,
        "net.tier_hit_rate": 0.0,
        "net.flushed_pages": 0,
        "net.fabric_transfers": 0,
        "net.fabric_retransmits": 0,
        "net.hedge_win_rate": 0.0,
        "net.drain_ms": 0.0,
        "net.read_p50_us": 0.0,
        "net.read_p99_us": 0.0,
        "net.read_p999_us": 0.0,
    }
    if manager is not None:
        out["core.batches"] = manager.batches_done.total
        latency = manager.batch_io_time
        out["core.batch_io_p50_us"] = latency.percentile(50) * 1e6
        out["core.batch_io_p99_us"] = latency.percentile(99) * 1e6
    if reliability is not None:
        out["reliability.retries"] = reliability.retries.total
        out["reliability.fail_fasts"] = reliability.fail_fasts.total
        out["reliability.breaker_trips"] = (
            reliability.health.breaker_trips.total
        )
        if reliability.watchdog is not None:
            out["reliability.watchdog_timeouts"] = (
                reliability.watchdog.timeouts_fired
            )
    if cache is not None:
        out["cache.hit_rate"] = cache.hit_rate()
        out["cache.evictions"] = cache.evictions
        out["cache.readahead_issued"] = cache.readahead_issued
        out["cache.readahead_accuracy"] = cache.readahead_accuracy()
    return out


def _cam_platform(num_ssds: int, fault_injector=None) -> Platform:
    return Platform(
        PlatformConfig(num_ssds=num_ssds),
        functional=False,
        fault_injector=fault_injector,
    )


class BatchRead(Workload):
    """Closed loop, one submitter: doorbell batches of seeded-uniform
    4 KiB reads over 8 SSDs through ``CamManager``'s fast coalesced
    walk (no reliability, metrics off).  Unit: one 4 KiB read.
    Request latency: doorbell to batch completion."""

    name = "batch_read"

    def __init__(self, seed: int, batches: int = 4, requests: int = 8192,
                 span_pages: int = 1 << 20):
        super().__init__()
        self.platform = _cam_platform(8)
        self.manager = CamManager(self.platform)
        rng = np.random.default_rng(seed)
        self.inputs = [
            rng.integers(0, span_pages, size=requests, dtype=np.int64)
            * PAGE_BLOCKS
            for _ in range(batches)
        ]
        self.attempted = batches * requests

    def run(self) -> None:
        env = self.platform.env
        manager = self.manager
        for lbas in self.inputs:
            start = env.now
            try:
                env.run(manager.ring(
                    BatchRequest(lbas=lbas, granularity=PAGE, is_write=False)
                ))
            except ReproError as error:
                self._fail(error, len(lbas))
            else:
                self.completed += len(lbas)
                self.latencies.append(env.now - start)

    def outcome(self) -> Outcome:
        env = self.platform.env
        layers = layer_counters(
            env.now, [self.platform], [self.manager.driver],
            manager=self.manager,
        )
        self._check(
            layers["core.batches"] == len(self.inputs),
            "every batch completes exactly once",
        )
        self._check(
            layers["hw.ssd_ops"] == self.completed,
            "one device read per completed request",
        )
        return self._outcome(
            env.now, self.completed * PAGE, env.events_processed, layers,
        )


class BatchReadWriteReliable(Workload):
    """Closed loop, 4 submitters in lock step: each round every
    submitter rings one batch of 4 KiB requests, and the next round
    starts when all of them completed.  Submitter ``i`` writes in round
    ``r`` when ``(r + i) % 3 == 2``, so one batch in three is a write
    and writes are spread over the rounds.  The full ``Reliability``
    bundle plus a seeded ``FaultInjector`` at a 1e-4 per-block error
    rate.  Unit: one 4 KiB request.  Request latency: doorbell to batch
    completion."""

    name = "batch_rw_reliable"

    def __init__(self, seed: int, submitters: int = 4, rounds: int = 3,
                 requests: int = 2048, span_pages: int = 1 << 20):
        super().__init__()
        fault_seed, input_seed = subseeds(seed, 2)
        self.platform = _cam_platform(
            8, FaultInjector(error_rate=1e-4, seed=fault_seed)
        )
        self.reliability = Reliability(self.platform)
        self.manager = CamManager(
            self.platform, reliability=self.reliability
        )
        rng = np.random.default_rng(input_seed)
        # fixed write positions: free-running submitters with seeded
        # positions overlap their writes differently on every seed,
        # which swings the batch-latency tail by 20-40 % between seeds
        self.rounds = [
            [
                (
                    rng.integers(0, span_pages, size=requests,
                                 dtype=np.int64) * PAGE_BLOCKS,
                    (r + i) % 3 == 2,
                )
                for i in range(submitters)
            ]
            for r in range(rounds)
        ]
        self.attempted = rounds * submitters * requests

    def _batch(self, lbas, is_write):
        env = self.platform.env
        start = env.now
        try:
            yield self.manager.ring(
                BatchRequest(lbas=lbas, granularity=PAGE, is_write=is_write)
            )
        except ReproError as error:
            self._fail(error, len(lbas))
        else:
            self.completed += len(lbas)
            self.latencies.append(env.now - start)

    def _rounds(self):
        env = self.platform.env
        for batches in self.rounds:
            yield env.all_of([env.process(self._batch(*b)) for b in batches])

    def run(self) -> None:
        env = self.platform.env
        env.run(env.process(self._rounds()))

    def outcome(self) -> Outcome:
        env = self.platform.env
        layers = layer_counters(
            env.now, [self.platform], [self.manager.driver],
            manager=self.manager, reliability=self.reliability,
        )
        self._check(
            layers["core.batches"] == sum(map(len, self.rounds)),
            "every batch completes exactly once",
        )
        self._check(
            layers["hw.ssd_ops"] >= self.completed,
            "at least one device op per completed request",
        )
        return self._outcome(
            env.now, self.completed * PAGE, env.events_processed, layers,
        )


class ServingKv(Workload):
    """``ServingEngine`` on CAM over 12 SSDs: Poisson session arrivals
    scheduled in simulated time (so the generator cannot run late),
    2-4 turns per session, a 512-block KV budget, 64 decode slots, and
    the live metrics registry installed.  Unit: one session turn.
    Request latency: time to first token, from the turn's arrival."""

    name = "serving_kv"

    def __init__(self, seed: int, sessions: int = 10_000):
        super().__init__()
        self.platform = _cam_platform(12)
        install_metrics(self.platform.env)
        self.backend = make_backend("cam", self.platform)
        self.store = KvBlockStore(
            self.platform, KvLayout(), capacity_blocks=512
        )
        self.pool = SessionPool(SessionConfig(
            num_sessions=sessions, seed=seed, mean_think_s=20e-3,
            turns_min=2, turns_max=4,
        ))
        self.engine = ServingEngine(
            self.platform, self.backend, self.store, self.pool,
            max_concurrent_decodes=64,
        )
        self.attempted = self.pool.total_turns
        self.result = None

    def run(self) -> None:
        try:
            self.result = self.engine.run()
        except ReproError as error:
            # the engine aborts the whole run on a failed turn, so no
            # turn's outcome can be trusted
            self._fail(error, self.attempted)
        else:
            self.completed = self.result.turns_done

    def outcome(self) -> Outcome:
        env = self.platform.env
        manager = self.backend.manager
        layers = layer_counters(
            env.now, [self.platform], [manager.driver], manager=manager,
        )
        result = self.result
        demand = 0
        p99_s, samples = 0.0, 0
        if result is not None:
            p99_s, samples = result.ttft_quantile(0.99), len(result.ttfts)
            layers.update({
                "serving.turns": result.turns_done,
                "serving.tokens_per_s": result.tokens_per_s,
                "serving.kv_hit_rate": result.kv_hit_rate,
                "serving.kv_evictions": result.kv_evictions,
                "serving.queue_wait_p99_ms": float(
                    np.quantile(result.queue_waits, 0.99)
                ) * 1e3,
                "serving.ttft_p50_ms": result.ttft_quantile(0.50) * 1e3,
                "serving.ttft_p99_ms": result.ttft_quantile(0.99) * 1e3,
                "serving.ttft_p999_ms": result.ttft_quantile(0.999) * 1e3,
            })
            self._check(
                result.tokens_done == self.pool.total_decode_tokens,
                "every decode token produced exactly once",
            )
            # every KV byte the turns moved is demand: no cache tier
            demand = sum(
                s.bytes_read.total + s.bytes_written.total
                for s in self.platform.ssds
            )
        return self._outcome(
            env.now, int(demand), env.events_processed, layers,
            p99_s, samples,
        )


class GraphCache(Workload):
    """Closed loop, one trainer: neighbour-sampled batches over a
    power-law graph fetch their node features (one 4 KiB line each)
    through a ``GpuCache`` with readahead, missing lines through the
    CAM device API, then run the aggregation kernel.  The cache starts
    empty.  Batches are sampled during set-up.  Unit: one demand
    feature.  Request latency: a batch's feature gather, from its
    cache lookup to its last missing line landing."""

    name = "graph_cache"

    def __init__(self, seed: int, num_nodes: int = 65_536,
                 batches: int = 32, batch_size: int = 128,
                 cache_lines: int = 4096):
        super().__init__()
        graph_seed, sampler_seed = subseeds(seed, 2)
        self.platform = _cam_platform(4)
        self.backend = make_backend("cam", self.platform)
        self.cache = GpuCache(
            self.platform, capacity_bytes=cache_lines * PAGE,
            line_bytes=PAGE, readahead=True,
        )
        graph = random_power_law_graph(
            num_nodes, avg_degree=8, seed=graph_seed
        )
        sampler = NeighborSampler(graph, fanouts=(10, 5), seed=sampler_seed)
        self.inputs: List[List[int]] = []
        for seeds in sampler.epoch_batches(
            np.arange(num_nodes, dtype=np.int64), batch_size
        ):
            nodes = sampler.sample(seeds).unique_nodes
            self.inputs.append((nodes * PAGE_BLOCKS).tolist())
            if len(self.inputs) == batches:
                break
        self.attempted = sum(map(len, self.inputs))

    def _speculate(self, plan):
        # background best-effort fetch: demand never waits on it
        try:
            api = self.backend.context.device_api()
            yield from api.prefetch(
                np.asarray(plan.speculative_lbas, dtype=np.int64),
                None, PAGE,
            )
            yield from api.prefetch_synchronize()
        except ReproError:
            self.cache.abort_speculative(plan)
        else:
            self.cache.commit_speculative(plan)

    def _epoch(self):
        env = self.platform.env
        cache = self.cache
        gpu = self.platform.gpu
        context = self.backend.context
        for lbas in self.inputs:
            start = env.now
            plan = cache.access_batch(lbas, granularity=PAGE)
            if plan.speculative_lbas:
                env.process(self._speculate(plan))
            try:
                if plan.hit_lbas:
                    yield env.timeout(
                        cache.hit_seconds(len(plan.hit_lbas) * PAGE)
                    )
                if plan.missing_lbas:
                    api = context.device_api()
                    yield from api.prefetch(
                        np.asarray(plan.missing_lbas, dtype=np.int64),
                        None, PAGE,
                    )
                    yield from api.prefetch_synchronize()
            except ReproError as error:
                cache.abort_demand(plan)
                self._fail(error, len(lbas))
                continue
            cache.commit_demand(plan)
            self.completed += len(lbas)
            self.latencies.append(env.now - start)
            yield env.timeout(
                gpu.kernel_time(bytes_accessed=len(lbas) * PAGE)
            )

    def run(self) -> None:
        env = self.platform.env
        env.run(env.process(self._epoch()))

    def outcome(self) -> Outcome:
        env = self.platform.env
        manager = self.backend.manager
        layers = layer_counters(
            env.now, [self.platform], [manager.driver], manager=manager,
            cache=self.cache,
        )
        self._check(
            self.cache.hits + self.cache.misses == self.attempted,
            "every demand feature is planned exactly once",
        )
        return self._outcome(
            env.now, self.completed * PAGE, env.events_processed, layers,
        )


class DisaggTiered(Workload):
    """Closed loop, 32 simulated clients: zipf(1.5) 4 KiB requests over
    an 8 MiB hot set, 20 % writes, through a ``TieredBackend`` (16 MiB
    local CAM tier, flush watermark 64) over 2 remote replica nodes.
    A warm pass fills the tier during set-up; the measured pass ends
    with a full dirty-log drain, which its simulated time leaves out.
    Unit: one request.  Request latency: a read, from issue to
    completion."""

    name = "disagg_tiered"

    def __init__(self, seed: int, warm: int = 10_000,
                 requests: int = 30_000, clients: int = 32):
        super().__init__()
        warm_seed, measured_seed = subseeds(seed, 2)
        self.clients = clients
        self.platform = _cam_platform(2)
        self.backend = build_disagg(
            self.platform, num_nodes=2, tiered=True, functional=False,
            capacity_bytes=16 * MiB, flush_watermark=64,
            deadline=10e-3, hedge_after=1e-3,
        )
        remote = self.backend.remote
        self.platforms = [self.platform] + [
            node.backend.platform for node in remote.nodes
        ]
        self.drivers = [self.backend.local.manager.driver] + [
            node.backend.driver for node in remote.nodes
        ]
        self.replayer = TraceReplayer(self.backend)
        self.trace = self._trace(requests, measured_seed)
        self.attempted = requests
        self.replayer.replay(
            self._trace(warm, warm_seed), open_loop=False,
            concurrency=clients,
        )
        # the measured pass reports its own counters
        for platform in self.platforms:
            platform.reset_stats()
        for driver in self.drivers:
            driver.requests_done.reset()
        for counter in (
            self.backend.hits, self.backend.misses,
            self.backend.flushed_pages, remote.hedged_reads,
            remote.hedge_wins,
        ):
            counter.reset()
        for node in remote.nodes:
            node.link.reset_stats()
        self.busy_base = sum(
            r.busy_seconds for d in self.drivers for r in d.pool.reactors
        )
        self.start = self.platform.env.now
        self.events_base = self.platform.env.events_processed
        self.report = None
        self.served_at = None
        self.dirty_after = None

    @staticmethod
    def _trace(count: int, seed: int):
        return make_zipfian_trace(
            count, granularity=PAGE, target_iops=10_000_000, skew=1.5,
            spread_blocks=1 << 14, write_fraction=0.2, seed=seed,
        )

    def run(self) -> None:
        env = self.platform.env
        try:
            self.report = self.replayer.replay(
                self.trace, open_loop=False, concurrency=self.clients
            )
        except ReproError as error:
            # a failed request kills its client and aborts the replay
            self._fail(error, self.attempted)
            return
        self.completed = (
            self.report.read_latency.count + self.report.write_latency.count
        )
        self.served_at = env.now
        self.dirty_after = env.run(env.process(self.backend.sync()))

    def outcome(self) -> Outcome:
        env = self.platform.env
        elapsed = env.now - self.start
        remote = self.backend.remote
        layers = layer_counters(
            elapsed, self.platforms, self.drivers, busy_base=self.busy_base,
        )
        # the clients are served when the last request completes; the
        # drain after it takes 0.2-10 ms depending on where the flush
        # watermark left the dirty log, so it is reported on its own
        served = elapsed
        if self.report is not None:
            served = self.served_at - self.start
            layers["net.drain_ms"] = (env.now - self.served_at) * 1e3
        links = [node.link for node in remote.nodes]
        hedged = remote.hedged_reads.total
        layers.update({
            "net.tier_hit_rate": self.backend.hit_rate(),
            "net.flushed_pages": self.backend.flushed_pages.total,
            "net.fabric_transfers": sum(l.transfers.total for l in links),
            "net.fabric_retransmits": sum(
                l.retransmits.total for l in links
            ),
            "net.hedge_win_rate": (
                remote.hedge_wins.total / hedged if hedged else 0.0
            ),
        })
        p99_s, samples = 0.0, 0
        if self.report is not None:
            reads = self.report.read_latency
            p99_s, samples = reads.percentile(99), reads.count
            layers.update({
                "net.read_p50_us": reads.percentile(50) * 1e6,
                "net.read_p99_us": reads.percentile(99) * 1e6,
                "net.read_p999_us": reads.percentile(99.9) * 1e6,
            })
            self._check(
                self.dirty_after == 0,
                f"dirty log drained ({self.dirty_after} pages left)",
            )
        return self._outcome(
            served, self.completed * PAGE,
            env.events_processed - self.events_base, layers,
            p99_s, samples,
        )


WORKLOADS = {
    cls.name: cls
    for cls in (
        BatchRead, BatchReadWriteReliable, ServingKv, GraphCache,
        DisaggTiered,
    )
}
