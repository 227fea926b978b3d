"""Extra studies beyond the paper's numbered artifacts.

* ``run_anns`` — the Section II motivation number: in an ANNS workload of
  4 KiB accesses, cudaMemcpyAsync costs ~78 % of total time on the bounce
  path.
* ``run_ablation_overlap`` — CAM with the async overlap disabled: how
  much of the end-to-end win comes from pipelining alone.
* ``run_ablation_datapath`` — CAM's control plane with a bounce data path
  (i.e. SPDK): what the direct SSD->GPU path contributes under memory-
  bandwidth pressure and small discontiguous accesses.
* ``run_ablation_autotune`` — dynamic core adjustment vs static N/2 and
  static N/4 allocations: cores consumed vs time lost.
* ``run_fragmentation`` — GDS request-path degradation on aged (multi-
  extent) files, the Jun et al. effect the paper cites; CAM is immune
  because it runs on raw block devices.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.config import PlatformConfig
from repro.experiments.report import ExperimentResult, Table
from repro.hw.platform import Platform
from repro.model.throughput import ThroughputModel
from repro.units import KiB, to_gb_per_s


def run_anns(quick: bool = True) -> ExperimentResult:
    from repro.workloads.anns import anns_with_backend

    result = ExperimentResult(
        exp_id="anns",
        title="ANNS motivation: cudaMemcpyAsync share of 4 KiB gathers",
        paper_expectation=(
            "Section II: bounce path spends ~78% of ANNS time in "
            "cudaMemcpyAsync; CAM's direct path spends none"
        ),
    )
    vectors = 2048 if quick else 8192
    clusters = 32 if quick else 128
    queries = 8 if quick else 32
    table = result.add_table(
        Table(
            "query-batch timing",
            ["system", "total_ms", "io_ms", "memcpy_ms",
             "memcpy_fraction", "recall@1"],
        )
    )
    for name in ("cam", "spdk"):
        outcome = anns_with_backend(
            name, num_vectors=vectors, num_clusters=clusters,
            num_queries=queries,
        )
        table.add_row(
            name,
            outcome.total_time * 1e3,
            outcome.io_time * 1e3,
            outcome.memcpy_time * 1e3,
            outcome.memcpy_fraction,
            outcome.recall_at_1,
        )
    return result


def run_dlrm(quick: bool = True) -> ExperimentResult:
    from repro.workloads.dlrm import dlrm_with_backend

    result = ExperimentResult(
        exp_id="dlrm",
        title="DLRM motivation: embedding access share of iteration time",
        paper_expectation=(
            "Section II: TorchRec spends ~75% of each iteration on "
            "embedding access from SSD; CAM overlaps it away"
        ),
    )
    iterations = 6 if quick else 16
    rows = (1 << 12) if quick else (1 << 14)
    table = result.add_table(
        Table(
            "training iteration timing",
            ["system", "total_ms", "embedding_fraction", "verified"],
        )
    )
    for name in ("libaio", "cam"):
        outcome = dlrm_with_backend(
            name, iterations=iterations, num_rows=rows, batch_size=256,
        )
        table.add_row(
            "cpu-managed (libaio)" if name == "libaio" else "cam",
            outcome.total_time * 1e3,
            outcome.embedding_fraction,
            outcome.verified,
        )
    return result


def run_llm(quick: bool = True) -> ExperimentResult:
    from repro.units import MiB
    from repro.workloads.llm import llm_with_backend

    result = ExperimentResult(
        exp_id="llm",
        title="LLM-offload motivation: update-phase share of step time",
        paper_expectation=(
            "Section II: ZeRO-Infinity spends >80% of time in the SSD-"
            "bound update phase; CAM overlaps shard streaming with the "
            "optimizer math"
        ),
    )
    steps = 2 if quick else 5
    model_bytes = (64 * MiB) if quick else (128 * MiB)
    table = result.add_table(
        Table(
            "training step timing",
            ["system", "total_ms", "update_fraction", "verified"],
        )
    )
    for name in ("libaio", "cam"):
        outcome = llm_with_backend(
            name, steps=steps, model_bytes=model_bytes,
        )
        table.add_row(
            "cpu-managed (libaio)" if name == "libaio" else "cam",
            outcome.total_time * 1e3,
            outcome.update_fraction,
            outcome.verified,
        )
    return result


def run_ablation_overlap(quick: bool = True) -> ExperimentResult:
    from repro.backends import make_backend
    from repro.workloads.gnn import gat, paper100m
    from repro.workloads.gnn.training import run_gnn_epoch
    from repro.workloads.sort import OutOfCoreSorter

    result = ExperimentResult(
        exp_id="ablation_overlap",
        title="Ablation: CAM with and without I/O-compute overlap",
        paper_expectation=(
            "the asynchronous API's overlap is a large share of CAM's "
            "end-to-end win; without it CAM degrades toward BaM-style "
            "serial execution, most visibly on balanced workloads (GAT)"
        ),
    )
    table = result.add_table(
        Table(
            "time with overlap disabled, relative to overlapped CAM",
            ["workload", "overlapped_ms", "serial_ms", "slowdown"],
        )
    )

    # balanced workload: GAT training (compute ~ I/O)
    spec = paper100m().scale(0.004 if quick else 0.01)
    batch = 32 if quick else 80
    max_batches = 6 if quick else 12
    overlapped = run_gnn_epoch(
        spec, gat(), "cam", batch_size=batch, max_batches=max_batches
    )
    serial = run_gnn_epoch(
        spec, gat(), "cam-serial", batch_size=batch,
        max_batches=max_batches,
    )
    table.add_row(
        "GNN (GAT, Paper100M)",
        overlapped.total_time * 1e3,
        serial.total_time * 1e3,
        serial.total_time / overlapped.total_time,
    )

    # I/O-leaning workload: mergesort
    elements = (1 << 18) if quick else (1 << 21)
    times = {}
    for overlap in (True, False):
        platform = Platform(PlatformConfig(num_ssds=12))
        backend = make_backend("cam", platform)
        sorter = OutOfCoreSorter(
            platform, backend, chunk_bytes=256 * KiB,
            granularity=128 * KiB, overlap=overlap,
        )
        rng = np.random.default_rng(3)
        sorter.stage(rng.integers(-2**31, 2**31 - 1, size=elements,
                                  dtype=np.int32))
        times[overlap] = sorter.run(verify=False).total_time
    table.add_row(
        "mergesort",
        times[True] * 1e3,
        times[False] * 1e3,
        times[False] / times[True],
    )
    return result


def run_ablation_datapath(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ablation_datapath",
        title="Ablation: CAM's direct data path vs a bounce data path",
        paper_expectation=(
            "with the same CPU-managed control plane, the bounce data "
            "path loses under constrained DRAM (Fig. 15) and small "
            "discontiguous accesses (Fig. 16); the direct path does not"
        ),
    )
    model = ThroughputModel(PlatformConfig())
    table = result.add_table(
        Table(
            "model: GB/s under pressure",
            ["scenario", "direct (cam)", "bounce (spdk ctrl=cam)"],
        )
    )
    scenarios = (
        ("4 KiB random read, ample DRAM", dict(granularity=4 * KiB)),
        ("128 KiB read, 2 DRAM channels",
         dict(granularity=128 * KiB, dram_channels=2)),
        ("4 KiB read, discontiguous dest",
         dict(granularity=4 * KiB, contiguous_dest=False)),
    )
    for label, kwargs in scenarios:
        granularity = kwargs.pop("granularity")
        direct = model.throughput("cam", granularity, False, cores=6)
        bounce = model.throughput("spdk", granularity, False, cores=6,
                                  **kwargs)
        table.add_row(label, to_gb_per_s(direct), to_gb_per_s(bounce))
    return result


def run_ablation_autotune(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ablation_autotune",
        title="Ablation: dynamic core adjustment vs static allocations",
        paper_expectation=(
            "on compute-bound loops the tuner sheds cores to N/4 with no "
            "time loss; on I/O-bound loops it holds N/2 and matches the "
            "static maximum"
        ),
    )
    table = result.add_table(
        Table(
            "12 SSDs, pipeline loop",
            ["workload", "policy", "final_cores", "loop_ms"],
        )
    )
    iterations = 8 if quick else 24
    for label, compute in BATCH_LOOP_MIXES:
        for policy in ("autotune", "static N/2", "static N/4"):
            out = _batch_loop(compute, policy, iterations)
            table.add_row(
                label, policy, out["final_cores"], out["sim_end"] * 1e3
            )
    result.note(
        "the tuner's value: compute-bound loops release cores for the "
        "application (paper Challenge 1) at equal loop time"
    )
    return result


#: the compute/I-O mixes of the per-batch core signal's loop
BATCH_LOOP_MIXES = (("compute-bound", 5e-3), ("io-bound", 0.0))
#: the core-sizing loops' platform and batch: 12 SSDs, 2048 x 4 KiB reads
LOOP_SSDS = 12
LOOP_REQUESTS = 2048
#: the sampler-driven controller's shrink cooldown in the elastic sweep
ELASTIC_COOLDOWN = 500e-6


def _pipeline(context, compute_time: float, iterations: int) -> float:
    """The fig12 pipeline loop on ``context``: ``iterations`` x (prefetch
    ``LOOP_REQUESTS`` x 4 KiB -> compute -> synchronize).  Returns the
    simulated seconds it took."""
    buffer = context.alloc(LOOP_REQUESTS * 4096)
    api = context.device_api()
    env = context.env
    lbas = np.arange(LOOP_REQUESTS, dtype=np.int64) * 8

    def kernel():
        for _ in range(iterations):
            yield from api.prefetch(lbas, buffer, 4096)
            if compute_time:
                yield env.timeout(compute_time)
            yield from api.prefetch_synchronize()

    start = env.now
    env.run(env.process(kernel()))
    return env.now - start


def _batch_loop(compute_time: float, policy: str, iterations: int) -> dict:
    """The pipeline loop under the paper's per-batch core signal
    (``policy`` ``"autotune"``) or a static ``"static N/2"`` or
    ``"static N/4"``: its final cores, simulated end and heap events."""
    from repro.core import CamContext

    platform = Platform(PlatformConfig(num_ssds=LOOP_SSDS), functional=False)
    context = CamContext(platform, autotune=policy == "autotune")
    if policy != "autotune":
        context.manager.set_active_reactors(
            6 if policy == "static N/2" else 3
        )
    sim_end = _pipeline(context, compute_time, iterations)
    return {
        "final_cores": context.manager.active_reactors,
        "sim_end": sim_end,
        "events": platform.env.events_processed,
    }


def _elastic_loop(compute_time: float, iterations: int, *, static_cores=None):
    """One pipeline loop (prefetch -> compute -> synchronize) under the
    closed-loop elastic controller — or a static allocation when
    ``static_cores`` is given — returning the observed core series and
    the run's cost accounting.  The sampler rides along either way (it
    is a pure observer), so the core-seconds integral is comparable
    across policies."""
    from repro.core import CamContext, ElasticController, ElasticCorePolicy
    from repro.obs import install_metrics, install_sampler

    platform = Platform(PlatformConfig(num_ssds=LOOP_SSDS), functional=False)
    context = CamContext(platform, autotune=False)
    env = platform.env
    metrics = install_metrics(env)
    sampler = install_sampler(
        metrics, manager=context.manager, interval=50e-6
    )
    policy = ElasticCorePolicy(num_ssds=LOOP_SSDS, cooldown=ELASTIC_COOLDOWN)
    ctrl = None
    if static_cores is not None:
        context.manager.set_active_reactors(static_cores)
    else:
        ctrl = ElasticController(
            sampler, manager=context.manager, policy=policy
        )
    elapsed = _pipeline(context, compute_time, iterations)
    if ctrl is not None:
        ctrl.stop()
    sampler.stop()
    sampler.sample_now()
    series = sampler.series("cam_active_cores")
    cores_seen = [int(v) for _, v in series] or [
        context.manager.active_reactors
    ]
    # integral of active cores over time: the resource the tuner frees
    core_seconds = 0.0
    for (t0, v0), (t1, _) in zip(series, series[1:]):
        core_seconds += float(v0) * (t1 - t0)
    return {
        "wall": elapsed,
        "bytes": iterations * LOOP_REQUESTS * 4096,
        "final_cores": context.manager.active_reactors,
        "min_cores_seen": min(cores_seen),
        "max_cores_seen": max(cores_seen),
        "core_seconds": core_seconds,
        "resizes": ctrl.resizes if ctrl else 0,
        "grows": ctrl.grows if ctrl else 0,
        "shrinks": ctrl.shrinks if ctrl else 0,
        "bounds": policy.bounds,
    }


#: the fig12-style compute/I-O mixes the elastic sweep drives
ELASTIC_MIXES = (
    ("compute-bound", 5e-3),
    ("balanced", 1e-3),
    ("io-bound", 0.0),
)


def run_elastic(quick: bool = True) -> ExperimentResult:
    """Fig. 12, closed-loop: active cores tracking the N/4..N/2 band.

    Sweeps compute/I-O mixes through the same pipeline loop with the
    :class:`~repro.core.elastic.ElasticController` live.  The paper's
    claim: compute-bound loops need only N/4 manager cores (I/O hides
    under compute with room to spare), I/O-bound loops need the full
    N/2, and the controller should find those operating points on its
    own from reactor busy fractions — never leaving the band.
    """
    result = ExperimentResult(
        exp_id="elastic",
        title="Closed-loop elastic cores across compute/I-O mixes",
        paper_expectation=(
            "Section III-A / Fig. 12: N SSDs want N/4 cores when compute "
            "dominates and N/2 when I/O does; the busy-fraction feedback "
            "loop lands inside that band for every mix"
        ),
    )
    iterations = 8 if quick else 24
    table = result.add_table(
        Table(
            "12 SSDs, pipeline loop, controller live",
            ["mix", "final_cores", "min_seen", "max_seen", "in_band",
             "grows", "shrinks", "wall_ms", "core_seconds"],
        )
    )
    for mix, compute_time in ELASTIC_MIXES:
        out = _elastic_loop(compute_time, iterations)
        lo, hi = out["bounds"]
        in_band = lo <= out["min_cores_seen"] <= out["max_cores_seen"] <= hi
        result.scenario_details[mix] = out
        table.add_row(
            mix, out["final_cores"], out["min_cores_seen"],
            out["max_cores_seen"], in_band, out["grows"], out["shrinks"],
            out["wall"] * 1e3, out["core_seconds"],
        )
    result.note(
        "in_band checks every sampled core count against [N/4, N/2] = "
        "[3, 6]; core_seconds is the integral of active cores over the "
        "run — the resource the controller hands back to the application "
        "on compute-bound mixes"
    )
    return result


def run_ssd_character(quick: bool = True) -> ExperimentResult:
    """Device-model validation against the P5510 datasheet anchors."""
    from repro.backends import measure_throughput
    from repro.backends.base import StorageBackend
    from repro.model.throughput import device_iops
    from repro.units import MiB

    result = ExperimentResult(
        exp_id="ssd_character",
        title="SSD model characterization vs. P5510 datasheet",
        paper_expectation=(
            "4 KiB random: ~700K read / ~170K write IOPS; sequential: "
            "6.5 / 3.4 GB/s; 15 us read / 82 us write latency"
        ),
    )
    config = PlatformConfig(num_ssds=1)
    table = result.add_table(
        Table(
            "one drive, direct queue-pair access",
            ["workload", "datasheet", "model", "measured (DES)"],
        )
    )

    class _RawDevice(StorageBackend):
        """Thinnest possible control plane: straight to the queue pair."""

        model_name = "raw"

        def __init__(self, platform):
            super().__init__(platform)
            from repro.oskernel.blockio import CompletionDispatcher

            self.qp = platform.ssds[0].create_queue_pair()
            self.dispatcher = CompletionDispatcher(self.env, self.qp)

        def io(self, lba, nbytes, is_write=False, **kwargs):
            from repro.hw.nvme import SQE, NVMeOpcode

            blocks = max(1, nbytes // 512)
            sqe = SQE(
                NVMeOpcode.WRITE if is_write else NVMeOpcode.READ,
                lba=lba, num_blocks=blocks,
            )
            done = self.dispatcher.register(sqe.command_id)
            yield self.qp.submit(sqe)
            cqe = yield done
            return cqe

    requests = 1500 if quick else 6000
    anchors = (
        ("4 KiB random read", 4096, False, 700_000 * 4096),
        ("4 KiB random write", 4096, True, 170_000 * 4096),
        ("1 MiB sequential read", MiB, False, 6.5e9),
        ("1 MiB sequential write", MiB, True, 3.4e9),
    )
    for label, granularity, is_write, datasheet in anchors:
        platform = Platform(config, functional=False)
        backend = _RawDevice(platform)
        count = requests if granularity == 4096 else max(200,
                                                         requests // 8)
        measured = measure_throughput(
            backend, granularity, is_write=is_write,
            total_requests=count, concurrency=64,
        )
        model_rate = (
            device_iops(config.ssd, granularity, is_write) * granularity
        )
        table.add_row(
            label,
            to_gb_per_s(datasheet),
            to_gb_per_s(model_rate),
            to_gb_per_s(measured),
        )

    latency = result.add_table(
        Table(
            "unloaded 4 KiB command latency (us)",
            ["workload", "media_anchor", "measured (DES)"],
        )
    )
    # the anchor is the *media* latency; the measured value is the full
    # command round trip (FTL + media + channel transfer), so it sits a
    # NAND-transfer above the anchor by construction
    for label, is_write, anchor in (("read", False, 15.0),
                                    ("write", True, 82.0)):
        platform = Platform(config, functional=False)
        backend = _RawDevice(platform)
        measure_throughput(
            backend, 4096, is_write=is_write, total_requests=20,
            concurrency=1,
        )
        stat = (
            platform.ssds[0].write_latency
            if is_write
            else platform.ssds[0].read_latency
        )
        latency.add_row(label, anchor, stat.mean() * 1e6)
    return result


def run_paper_scale_gnn(quick: bool = True) -> ExperimentResult:
    from repro.workloads.gnn import gat, gcn, graphsage, igb_full, paper100m
    from repro.workloads.gnn.paper_scale import (
        estimate_epoch,
        measure_batch_shape,
    )

    result = ExperimentResult(
        exp_id="paper_scale_gnn",
        title="GNN epoch estimate at full Table IV scale",
        paper_expectation=(
            "the Fig. 9 comparison extrapolated to 111M/269M-node "
            "datasets: per-epoch feature traffic of 100s of GB, CAM "
            "speedups in the same 1.4-1.9x band as the scaled runs"
        ),
    )
    probe = 0.004 if quick else 0.01
    table = result.add_table(
        Table(
            "estimated epoch (Table IV scale, batch 8000, fan-outs 25/10)",
            ["dataset", "model", "gids_s", "cam_s", "speedup",
             "GB_per_epoch"],
        )
    )
    for dataset, probe_scale in (
        (paper100m(), probe),
        (igb_full(), probe / 2),
    ):
        shape = measure_batch_shape(dataset, probe_scale=probe_scale)
        for make_model in (gcn, graphsage, gat):
            model = make_model()
            gids = estimate_epoch(dataset, model, "gids", shape=shape)
            cam = estimate_epoch(dataset, model, "cam", shape=shape)
            table.add_row(
                dataset.name,
                model.name,
                gids.epoch_seconds,
                cam.epoch_seconds,
                gids.epoch_seconds / cam.epoch_seconds,
                gids.bytes_per_epoch / 1e9,
            )
    result.note(
        "sampling shapes measured on probe-scaled power-law graphs; "
        "see workloads/gnn/paper_scale.py for the extrapolation model"
    )
    return result


def run_host_cache(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="host_cache",
        title="Ginex-style host caching on skewed traffic",
        paper_expectation=(
            "related work (Ginex/MariusGNN) caches hot pages in CPU "
            "memory; caching and CAM attack different costs — the cache "
            "cuts SSD traffic, CAM cuts per-access overhead — and they "
            "compose"
        ),
    )
    requests = 1200 if quick else 6000
    table = result.add_table(
        Table(
            "zipf(1.5) 4 KiB reads, 2 SSDs",
            ["configuration", "GB/s", "hit_rate"],
        )
    )
    for label, inner, cache_bytes in (
        ("spdk", "spdk", 0),
        ("spdk + 2 MiB cache", "spdk", 2 << 20),
        ("cam", "cam", 0),
        ("cam + 2 MiB cache", "cam", 2 << 20),
    ):
        out = _host_cache_run(inner, cache_bytes, requests)
        table.add_row(label, out["gb_per_s"], out["hit_rate"])
    return result


def _host_cache_run(inner: str, cache_bytes: int, requests: int) -> dict:
    """The host-cache study's zipf(1.5) read trace on 2 SSDs through
    ``inner`` (``"spdk"`` or ``"cam"``), behind a ``cache_bytes``
    :class:`~repro.backends.cache.CachedBackend` unless it is 0: its
    GB/s, hit rate, evictions and simulated end."""
    from repro.backends import CachedBackend, make_backend
    from repro.workloads.trace import TraceReplayer, make_zipfian_trace

    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    backend = make_backend(inner, platform, to_gpu=False) \
        if inner != "cam" else make_backend("cam", platform)
    if cache_bytes:
        backend = CachedBackend(backend, cache_bytes, to_gpu=False)
    trace = make_zipfian_trace(
        requests, target_iops=10_000_000, skew=1.5,
        spread_blocks=1 << 14, write_fraction=0.0, seed=7,
    )
    report = TraceReplayer(backend).replay(
        trace, open_loop=False, concurrency=64
    )
    return {
        "gb_per_s": to_gb_per_s(report.achieved_bytes_per_s),
        "hit_rate": backend.hit_rate() if cache_bytes else 0.0,
        "evictions": int(backend.evictions.total) if cache_bytes else 0,
        "sim_end": platform.env.now,
    }


def run_latency(quick: bool = True) -> ExperimentResult:
    from repro.backends import make_backend
    from repro.workloads.trace import TraceReplayer, make_zipfian_trace

    result = ExperimentResult(
        exp_id="latency",
        title="Read latency under offered load (open-loop, 4 KiB)",
        paper_expectation=(
            "kernel-bypass planes hold device-floor latency until near "
            "saturation; the kernel path adds tens of microseconds at "
            "any load"
        ),
    )
    requests = 800 if quick else 4000
    table = result.add_table(
        Table(
            "p50 / p99 read latency (us), 12 SSDs",
            ["offered_kIOPS", "cam_p50", "cam_p99", "posix_p50",
             "posix_p99"],
        )
    )
    loads = (100_000, 1_000_000, 3_000_000)
    for offered in loads:
        row = [offered / 1000]
        for name in ("cam", "posix"):
            platform = Platform(PlatformConfig(num_ssds=12),
                                functional=False)
            kwargs = {"num_cores": 12} if name == "cam" else {}
            backend = make_backend(name, platform, **kwargs)
            # POSIX saturates far below the offered rates; cap its load
            # so the open-loop queue doesn't grow unboundedly
            rate = min(offered, 400_000) if name == "posix" else offered
            trace = make_zipfian_trace(
                requests, target_iops=rate, write_fraction=0.0, seed=8
            )
            report = TraceReplayer(backend).replay(trace, open_loop=True)
            row.append(report.latency_percentile(50) * 1e6)
            row.append(report.latency_percentile(99) * 1e6)
        table.add_row(*row)
    result.note(
        "POSIX offered load capped at 400 kIOPS (its capacity is ~0.5 "
        "GB/s); CAM rides the device floor until the PCIe knee"
    )
    return result


def run_fragmentation(quick: bool = True) -> ExperimentResult:
    from repro.gds import CuFileDriver

    result = ExperimentResult(
        exp_id="fragmentation",
        title="File fragmentation and the GDS request path",
        paper_expectation=(
            "aged, multi-extent files inflate LBA retrieval; CAM avoids "
            "the file system entirely (its limitation AND its shield)"
        ),
    )
    table = result.add_table(
        Table(
            "concurrent 128 KiB reads from files with varying extents",
            ["fragments", "gds_GB/s", "vs_unfragmented"],
        )
    )
    reads = 60 if quick else 300
    rates = {}
    for fragments in (1, 4, 16, 64):
        platform = Platform(PlatformConfig(num_ssds=12), functional=False)
        driver = CuFileDriver(platform)
        handle = driver.register_file(
            "aged.bin", 256 << 20, fragments=fragments
        )
        env = platform.env

        def one_read(index):
            offset = (index * (128 << 10)) % (255 << 20)
            yield from driver.io_file(handle, offset, 128 << 10)

        start = env.now
        readers = [env.process(one_read(i)) for i in range(reads)]
        env.run(env.all_of(readers))
        rates[fragments] = reads * (128 << 10) / (env.now - start)
    for fragments, rate in rates.items():
        table.add_row(
            fragments, to_gb_per_s(rate), rate / rates[1]
        )
    return result


def _reliability_cell(
    name: str,
    error_rate: float,
    replicated: bool,
    requests: int,
):
    """One sweep point: p99 latency, goodput, app-visible errors, retries."""
    from repro.backends import ReplicatedBackend, make_backend
    from repro.errors import DeviceError
    from repro.hw.faults import FaultInjector
    from repro.reliability import Reliability

    injector = FaultInjector(error_rate=error_rate, seed=11)
    platform = Platform(
        PlatformConfig(num_ssds=4), functional=False,
        fault_injector=injector,
    )
    reliability = Reliability(platform)
    kwargs = {"num_cores": 2} if name == "cam" else {}
    backend = make_backend(name, platform, reliability=reliability,
                           **kwargs)
    if replicated:
        backend = ReplicatedBackend(backend)
    env = platform.env
    granularity = 4 * KiB
    blocks = granularity // platform.config.ssd.block_size
    platform.stripe_blocks = blocks
    rng = np.random.default_rng(23)
    lbas = rng.integers(0, 1 << 15, size=requests) * blocks
    shared = {"next": 0, "errors": 0}
    latencies = []

    def worker():
        while shared["next"] < requests:
            index = shared["next"]
            shared["next"] += 1
            start = env.now
            try:
                yield from backend.io(int(lbas[index]), granularity)
            except DeviceError:
                shared["errors"] += 1
            else:
                latencies.append(env.now - start)

    workers = [env.process(worker()) for _ in range(16)]
    start = env.now
    env.run(env.all_of(workers))
    elapsed = env.now - start
    goodput = len(latencies) * granularity / elapsed if elapsed else 0.0
    p99 = float(np.percentile(latencies, 99)) if latencies else float("nan")
    return p99, goodput, shared["errors"], int(reliability.retries.total)


def run_reliability(quick: bool = True) -> ExperimentResult:
    """Fault rate vs p99 latency and goodput, CAM vs SPDK, mirror on/off."""
    result = ExperimentResult(
        exp_id="reliability",
        title="Reliability: fault rate vs p99 latency and goodput",
        paper_expectation=(
            "retries absorb transient media faults with zero "
            "application-visible errors at 1e-3/block; mirroring trades "
            "a little p99 for fault transparency at higher rates"
        ),
    )
    requests = 300 if quick else 2000
    rates = (0.0, 1e-3, 1e-2) if quick else (0.0, 1e-4, 1e-3, 1e-2)
    table = result.add_table(
        Table(
            "closed-loop 4 KiB reads, 4 SSDs, 16 workers",
            ["fault_rate", "system", "mirrored", "p99_us",
             "goodput_GB/s", "app_errors", "retries"],
        )
    )
    for error_rate in rates:
        for name in ("cam", "spdk"):
            for replicated in (False, True):
                p99, goodput, errors, retries = _reliability_cell(
                    name, error_rate, replicated, requests
                )
                table.add_row(
                    error_rate,
                    name,
                    replicated,
                    p99 * 1e6,
                    to_gb_per_s(goodput),
                    errors,
                    retries,
                )
    result.note(
        "fault_rate is the per-block transient error probability; "
        "app_errors counts failures that survived retries (and the "
        "mirror, when on) all the way to the application"
    )
    return result


def _chaos_batches(
    *,
    error_rate: float = 0.0,
    offline=None,
    reactor_stall=None,
    reactor_crash=None,
    admission_limits=None,
    workers: int = 4,
    batches: int = 2,
    per_batch: int = 32,
    num_ssds: int = 4,
    num_cores: int = 2,
    elastic: bool = False,
    inter_batch_idle: float = 0.0,
    flight_dir=None,
    scenario: str = "chaos",
):
    """One chaos scenario on the coalesced reliable batch path.

    Drives ``workers`` concurrent GPU-side submitters, each ringing
    ``batches`` batches of ``per_batch`` 4 KiB reads through the CAM
    manager, while the requested faults play out.  Returns the raw
    counters the invariant checks run against, a ``"metrics"``
    registry snapshot, and a ``"_dump"`` closure that writes a
    flight-recorder bundle under ``flight_dir`` (no-op returning None
    when ``flight_dir`` is unset).

    ``offline`` is ``(ssd_id, at)`` — drop a device off the bus mid-run.
    ``reactor_stall`` / ``reactor_crash`` plant injector reactor faults
    and turn the supervisor on.  ``admission_limits`` builds an
    :class:`~repro.reliability.AdmissionController` so batches beyond
    the bound shed with :class:`~repro.errors.OverloadError`.
    ``elastic`` arms an aggressive
    :class:`~repro.core.elastic.ElasticController` (tiny interval and
    cooldown so it actually remaps mid-run); ``inter_batch_idle`` makes
    each worker sleep between batches, carving the bursty-then-idle
    pressure profile that forces shrink-then-grow cycles.
    """
    from repro.core import CamContext, ElasticController, ElasticCorePolicy
    from repro.core.control import BatchRequest
    from repro.errors import DeviceError, OverloadError
    from repro.hw.faults import FaultInjector
    from repro.obs import (
        FlightRecorder,
        install_metrics,
        install_sampler,
        install_tracer,
    )
    from repro.reliability import AdmissionController, Reliability

    injector = FaultInjector(error_rate=error_rate, seed=11)
    supervise = False
    if reactor_stall is not None:
        injector.stall_reactor(*reactor_stall)
        supervise = True
    if reactor_crash is not None:
        injector.crash_reactor(*reactor_crash)
        supervise = True
    platform = Platform(
        PlatformConfig(num_ssds=num_ssds), functional=False,
        fault_injector=injector,
    )
    env = platform.env
    reliability = Reliability(platform)
    admission = (
        AdmissionController(env, **admission_limits)
        if admission_limits is not None
        else None
    )
    context = CamContext(
        platform, num_cores=num_cores, autotune=False,
        reliability=reliability, admission=admission,
        supervise_reactors=supervise,
    )
    manager = context.manager
    # telemetry is a pure observer: the tracer records, the sampler only
    # adds timer events, neither changes what the scenario computes
    tracer = install_tracer(env)
    metrics = install_metrics(env)
    sampler = install_sampler(metrics, manager=manager, interval=20e-6)
    controller = None
    if elastic:
        controller = ElasticController(
            sampler,
            manager=manager,
            policy=ElasticCorePolicy(num_ssds=num_ssds, cooldown=50e-6),
            interval=40e-6,
            window_samples=2,
        )
    granularity = 4 * KiB
    blocks = granularity // platform.config.ssd.block_size
    platform.stripe_blocks = blocks
    rng = np.random.default_rng(29)
    stats = {"submitted": 0, "ok": 0, "errors": 0, "shed": 0}
    error_types = set()
    latencies = []

    if offline is not None:
        ssd_id, at = offline

        def drop_device():
            yield env.timeout(at)
            injector.set_offline(ssd_id)

        env.process(drop_device())

    def worker():
        for index in range(batches):
            if inter_batch_idle and index:
                # the idle half of burst-then-idle: pressure collapses,
                # the controller shrinks, the next burst grows it back
                yield env.timeout(inter_batch_idle)
            lbas = rng.integers(0, 1 << 15, size=per_batch) * blocks
            batch = BatchRequest(
                lbas=np.asarray(lbas, dtype=np.int64),
                granularity=granularity, is_write=False,
            )
            start = env.now
            try:
                done = manager.ring(batch)
            except OverloadError:
                stats["shed"] += per_batch
                continue  # shed means shed: the burst is not re-offered
            stats["submitted"] += per_batch
            try:
                yield done
            except DeviceError as error:
                stats["errors"] += 1
                error_types.add(type(error).__name__)
            else:
                stats["ok"] += per_batch
                latencies.append(env.now - start)

    procs = [env.process(worker()) for _ in range(workers)]
    start = env.now
    env.run(env.all_of(procs))  # SimulationError here == a hang
    elapsed = env.now - start
    if manager.supervisor is not None:
        manager.supervisor.stop()
    if controller is not None:
        controller.stop()
    sampler.stop()
    sampler.sample_now()
    driver = manager.driver

    def dump_bundle(reason: str, detail=None):
        if flight_dir is None:
            return None
        recorder = FlightRecorder(
            env, Path(flight_dir) / scenario,
            tracer=tracer, sampler=sampler, metrics=metrics,
            health=reliability.health, admission=admission,
        )
        return recorder.dump(reason, detail=detail)

    return {
        "offered": workers * batches * per_batch,
        "submitted": stats["submitted"],
        "terminated": int(manager.requests_done.total),
        "app_errors": stats["errors"],
        "error_types": error_types,
        "shed": stats["shed"],
        "retries": int(reliability.retries.total),
        "duplicates": driver.duplicate_completions,
        "goodput": stats["ok"] * granularity / elapsed if elapsed else 0.0,
        "p99": (
            float(np.percentile(latencies, 99)) if latencies
            else float("nan")
        ),
        "partition_ok": all(
            not handle.reactor.crashed for handle in driver._handles
        ),
        "resizes": controller.resizes if controller is not None else 0,
        "metrics": metrics.registry.snapshot(),
        "_dump": dump_bundle,
    }


def _chaos_mirrored(requests: int, crash_at=None, flight_dir=None,
                    scenario: str = "mirrored"):
    """Closed-loop 4 KiB reads over mirrored devices, optional reactor
    crash (supervised) at ``crash_at``.  Returns (goodput, app_errors,
    duplicates, partition_ok, telemetry) where telemetry carries the
    metrics snapshot and a flight-bundle ``"_dump"`` closure."""
    from repro.backends import ReplicatedBackend, make_backend
    from repro.errors import DeviceError
    from repro.hw.faults import FaultInjector
    from repro.obs import (
        FlightRecorder,
        install_metrics,
        install_sampler,
        install_tracer,
    )
    from repro.reliability import Reliability

    injector = FaultInjector(seed=11)
    if crash_at is not None:
        injector.crash_reactor(0, at=crash_at)
    platform = Platform(
        PlatformConfig(num_ssds=4), functional=False,
        fault_injector=injector,
    )
    reliability = Reliability(platform)
    inner = make_backend(
        "cam", platform, reliability=reliability, num_cores=2
    )
    driver = inner.manager.driver
    supervisor = driver.supervise(check_interval=1e-4)
    backend = ReplicatedBackend(inner)
    env = platform.env
    tracer = install_tracer(env)
    metrics = install_metrics(env)
    sampler = install_sampler(
        metrics, driver=driver, reliability=reliability, interval=20e-6
    )
    granularity = 4 * KiB
    blocks = granularity // platform.config.ssd.block_size
    platform.stripe_blocks = blocks
    rng = np.random.default_rng(23)
    lbas = rng.integers(0, 1 << 15, size=requests) * blocks
    shared = {"next": 0, "errors": 0, "ok": 0}

    def worker():
        while shared["next"] < requests:
            index = shared["next"]
            shared["next"] += 1
            try:
                yield from backend.io(int(lbas[index]), granularity)
            except DeviceError:
                shared["errors"] += 1
            else:
                shared["ok"] += 1

    procs = [env.process(worker()) for _ in range(16)]
    start = env.now
    env.run(env.all_of(procs))
    elapsed = env.now - start
    supervisor.stop()
    sampler.stop()
    sampler.sample_now()
    goodput = shared["ok"] * granularity / elapsed if elapsed else 0.0
    partition_ok = all(
        not handle.reactor.crashed for handle in driver._handles
    )

    def dump_bundle(reason: str, detail=None):
        if flight_dir is None:
            return None
        recorder = FlightRecorder(
            env, Path(flight_dir) / scenario,
            tracer=tracer, sampler=sampler, metrics=metrics,
            health=reliability.health,
        )
        return recorder.dump(reason, detail=detail)

    telemetry = {
        "metrics": metrics.registry.snapshot(),
        "_dump": dump_bundle,
    }
    return goodput, shared["errors"], driver.duplicate_completions, \
        partition_ok, telemetry


def _chaos_disagg(
    requests: int = 160,
    workers: int = 8,
    write_fraction: float = 0.5,
    working_pages: int = 96,
    capacity_pages: int = 48,
    partition=None,
    flap=None,
    brownout=None,
    second_partition=None,
    flight_dir=None,
    scenario: str = "disagg",
):
    """Closed-loop page-aligned 4 KiB mixed ops on a tiered backend
    (local cache over 2 remote replica nodes) under fabric faults.

    ``partition``/``second_partition`` are ``(start, duration)`` windows
    partitioning *both* links (a full fabric partition); ``flap`` is
    ``(start, period, count)`` bouncing link ``node0`` only;
    ``brownout`` is ``(start, duration, factor)`` on ``node0``.

    After the workload the fabric is left to heal and the tier is
    synced until the dirty log drains; then every written page is read
    back **directly from the remote backend** and compared against the
    last acked write — the no-lost-or-stale-writes check.  Returns the
    invariant-check dict (plus telemetry and a flight-dump closure).
    """
    from repro.errors import DeviceError, NetworkError
    from repro.net import NetworkFaultInjector, build_disagg
    from repro.obs import (
        FlightRecorder,
        install_metrics,
        install_sampler,
        install_tracer,
    )
    from repro.reliability import HealthTracker

    injector = NetworkFaultInjector()
    links = ("node0", "node1")
    if partition is not None:
        start, duration = partition
        for link in links:
            injector.partition(link, start=start, duration=duration)
    if second_partition is not None:
        start, duration = second_partition
        for link in links:
            injector.partition(link, start=start, duration=duration)
    if flap is not None:
        start, period, count = flap
        injector.flap("node0", start=start, period=period, count=count)
    if brownout is not None:
        start, duration, factor = brownout
        injector.brownout(
            "node0", factor=factor, start=start, duration=duration
        )

    platform = Platform(PlatformConfig(num_ssds=2), functional=True)
    env = platform.env
    tracer = install_tracer(env)
    metrics = install_metrics(env)
    page_bytes = 4 * KiB
    tier = build_disagg(
        platform,
        num_nodes=2,
        fault_injector=injector,
        capacity_bytes=capacity_pages * page_bytes,
        flush_watermark=8,
        probe_interval=100e-6,
        health=HealthTracker(env, 2, breaker_cooldown=200e-6),
    )
    sampler = install_sampler(metrics, net=tier, interval=20e-6)
    blocks = page_bytes // platform.config.ssd.block_size
    platform.stripe_blocks = blocks
    rng = np.random.default_rng(31)
    page_seq = rng.integers(0, working_pages, size=requests)
    write_draw = rng.random(size=requests)
    shared = {"next": 0, "ok": 0, "errors": 0}
    error_types = set()
    #: page -> payload of the last *acknowledged* write
    expected = {}
    verify_failures = 0

    def payload_for(page: int, version: int) -> bytes:
        return bytes([(page * 31 + version * 7) % 256]) * page_bytes

    versions = {}

    def worker():
        nonlocal verify_failures
        while shared["next"] < requests:
            index = shared["next"]
            shared["next"] += 1
            page = int(page_seq[index])
            lba = page * blocks
            is_write = write_draw[index] < write_fraction
            try:
                if is_write:
                    version = versions.get(page, 0) + 1
                    data = payload_for(page, version)
                    yield from tier.io(
                        lba, page_bytes, is_write=True, payload=data
                    )
                    versions[page] = version
                    expected[page] = data
                else:
                    version_at_start = versions.get(page, 0)
                    cqe = yield from tier.io(lba, page_bytes)
                    value = getattr(cqe, "value", None)
                    if version_at_start > 0 and value is not None:
                        # linearizability window: the read may observe
                        # any version acked when it started through one
                        # past the latest ack (an in-flight writer)
                        fresh = {
                            payload_for(page, v)
                            for v in range(
                                version_at_start,
                                versions.get(page, 0) + 2,
                            )
                        }
                        if bytes(value) not in fresh:
                            verify_failures += 1
            except NetworkError as error:
                shared["errors"] += 1
                error_types.add(type(error).__name__)
            except DeviceError as error:
                shared["errors"] += 1
                error_types.add(type(error).__name__)
            else:
                shared["ok"] += 1

    procs = [env.process(worker()) for _ in range(workers)]
    start = env.now
    env.run(env.all_of(procs))  # SimulationError here == a hang
    elapsed = env.now - start

    # drain the dirty log, retrying across any still-open fault windows
    # (syncing *immediately* matters: the partition-during-resync
    # scenario plants its second window to land mid-drain)
    def drain():
        for _ in range(128):
            remaining = yield from tier.sync()
            if remaining == 0 and not tier.degraded:
                return
            yield env.timeout(250e-6)

    env.run(env.process(drain()))
    dirty_after = tier.dirty_pages()

    # full read-back from the *remote* tier: no lost or stale writes
    readback_failures = 0

    def readback():
        nonlocal readback_failures
        for page, want in sorted(expected.items()):
            cqe = yield from tier.remote.io(page * blocks, page_bytes)
            value = getattr(cqe, "value", None)
            if value is None or bytes(value) != want:
                readback_failures += 1

    if dirty_after == 0:
        env.run(env.process(readback()))
    sampler.stop()
    sampler.sample_now()

    def dump_bundle(reason: str, detail=None):
        if flight_dir is None:
            return None
        recorder = FlightRecorder(
            env, Path(flight_dir) / scenario,
            tracer=tracer, sampler=sampler, metrics=metrics,
            health=tier.remote.health,
        )
        return recorder.dump(reason, detail=detail)

    remote = tier.remote
    return {
        "offered": requests,
        "ok": shared["ok"],
        "errors": shared["errors"],
        "error_types": error_types,
        "goodput": shared["ok"] * page_bytes / elapsed if elapsed else 0.0,
        "degraded_entries": int(tier.partitions_detected.total),
        "resyncs": int(tier.resyncs.total),
        "hedged": int(remote.hedged_reads.total),
        "hedge_wins": int(remote.hedge_wins.total),
        "remote_timeouts": int(remote.remote_timeouts.total),
        "queued_writes": int(tier.queued_writes.total),
        "degraded_misses": int(tier.degraded_misses.total),
        "dirty_after": dirty_after,
        "healed": not tier.degraded,
        "verify_failures": verify_failures,
        "readback_failures": readback_failures,
        "written_pages": len(expected),
        "metrics": metrics.registry.snapshot(),
        "_dump": dump_bundle,
    }


#: every chaos scenario name, in campaign order — the single source the
#: CLI's ``--list`` / ``--only`` validation reads
CHAOS_SCENARIOS = (
    "baseline",
    "media_faults",
    "device_offline",
    "reactor_stall",
    "reactor_crash",
    "overload_4x",
    "resize_during_stall",
    "resize_during_crash",
    "burst_then_idle",
    "mirrored_baseline",
    "mirrored_reactor_crash",
    "net_partition",
    "net_flap",
    "net_brownout",
    "net_partition_during_resync",
)


def chaos_scenario_names():
    """All chaos scenario names, in the order the campaign runs them."""
    return list(CHAOS_SCENARIOS)


def run_chaos(
    quick: bool = True, flight_dir=None, only=None
) -> ExperimentResult:
    """Chaos campaign: fault scenarios on the reliable coalesced path.

    Every scenario asserts the robustness invariants of ISSUE 4: each
    admitted request terminates exactly once (completed or typed error),
    no duplicated completion, no hang (``env.run`` returning at all is
    the hang check), SSD->reactor assignment stays a partition over
    alive reactors after failover, and goodput keeps a floor under a
    single-reactor crash with mirrored devices.

    Each scenario's final metrics snapshot lands in
    ``result.scenario_details[name]["metrics"]``; when ``flight_dir``
    is given, every *failed* scenario additionally dumps a
    flight-recorder bundle and records its path under
    ``"flight_bundle"`` (None for passing scenarios).

    ``only`` restricts the campaign to a subset of scenario names (see
    :data:`CHAOS_SCENARIOS`); unknown names raise
    :class:`~repro.errors.ConfigurationError`.  The network scenarios
    (``net_*``) run the disaggregated tier under fabric faults and add
    the PR 9 invariants: a partition never hangs an op (typed
    ``NetworkError`` or degraded-tier serve), the post-heal resync
    drains the dirty log, and a full remote read-back shows no lost or
    stale writes.
    """
    from repro.errors import ConfigurationError

    if only is not None:
        selected = set(only)
        unknown = selected - set(CHAOS_SCENARIOS)
        if unknown:
            raise ConfigurationError(
                f"unknown chaos scenario(s) {sorted(unknown)}; known: "
                f"{list(CHAOS_SCENARIOS)}"
            )
    else:
        selected = None

    def want(name: str) -> bool:
        return selected is None or name in selected

    result = ExperimentResult(
        exp_id="chaos",
        title="Chaos campaign: device, reactor and overload faults",
        paper_expectation=(
            "CAM's control plane degrades, never wedges: faults surface "
            "as typed errors or retried successes, reactor crashes fail "
            "over, overload sheds at admission"
        ),
    )
    workers = 4 if quick else 8
    batches = 2 if quick else 6
    per_batch = 32 if quick else 64
    table = result.add_table(
        Table(
            "closed-loop 4 KiB read batches, 4 SSDs, 2 reactors",
            ["scenario", "offered", "submitted", "terminated",
             "app_errors", "shed", "retries", "duplicates",
             "goodput_GB/s", "p99_us", "invariants_ok"],
        )
    )

    def check_common(out):
        return (
            out["terminated"] == out["submitted"]
            and out["submitted"] + out["shed"] == out["offered"]
            and out["duplicates"] == 0
            and out["partition_ok"]
        )

    scenarios = [
        ("baseline", {}, lambda o: o["app_errors"] == 0),
        (
            "media_faults",
            {"error_rate": 0.02},
            lambda o: o["retries"] > 0,
        ),
        (
            "device_offline",
            {"offline": (1, 0.1e-3)},
            lambda o: o["app_errors"] > 0
            and o["error_types"] <= {
                "DeviceOfflineError", "DeviceTimeoutError"
            },
        ),
        (
            "reactor_stall",
            {"reactor_stall": (0, 0.05e-3, 20e-3)},
            lambda o: o["app_errors"] == 0,
        ),
        (
            "reactor_crash",
            {"reactor_crash": (0, 0.05e-3)},
            lambda o: o["app_errors"] == 0,
        ),
        (
            "overload_4x",
            {
                "admission_limits": {
                    "max_inflight_requests": workers * per_batch // 2,
                },
                "workers": 4 * workers,
                "batches": 1,
            },
            lambda o: o["shed"] > 0 and o["p99"] < 50e-3,
        ),
        # elastic controller live while faults play out: resizes and
        # supervisor re-homing must compose without breaking exactly-once
        (
            "resize_during_stall",
            {"reactor_stall": (0, 0.05e-3, 20e-3), "elastic": True},
            lambda o: o["app_errors"] == 0,
        ),
        (
            "resize_during_crash",
            {"reactor_crash": (0, 0.05e-3), "elastic": True},
            lambda o: o["app_errors"] == 0,
        ),
        (
            "burst_then_idle",
            {
                "elastic": True,
                "inter_batch_idle": 2e-3,
                "batches": max(3, batches),
            },
            lambda o: o["app_errors"] == 0 and o["resizes"] > 0,
        ),
    ]
    details = result.scenario_details
    for name, kwargs, extra_check in scenarios:
        if not want(name):
            continue
        kwargs.setdefault("workers", workers)
        kwargs.setdefault("batches", batches)
        kwargs.setdefault("per_batch", per_batch)
        out = _chaos_batches(
            **kwargs, flight_dir=flight_dir, scenario=name
        )
        ok = check_common(out) and extra_check(out)
        bundle = None
        if not ok:
            bundle = out["_dump"](
                f"chaos:{name}", detail="invariant check failed"
            )
        details[name] = {
            "metrics": out["metrics"],
            "resizes": out["resizes"],
            "flight_bundle": str(bundle) if bundle is not None else None,
        }
        table.add_row(
            name, out["offered"], out["submitted"], out["terminated"],
            out["app_errors"], out["shed"], out["retries"],
            out["duplicates"], to_gb_per_s(out["goodput"]),
            out["p99"] * 1e6, ok,
        )

    # mirrored goodput floor under a single supervised reactor crash
    requests = 600 if quick else 3000
    if want("mirrored_baseline") or want("mirrored_reactor_crash"):
        mirror = result.add_table(
            Table(
                "mirrored devices, closed-loop, single reactor crash",
                ["scenario", "goodput_GB/s", "app_errors", "duplicates",
                 "invariants_ok"],
            )
        )
        # the crash scenario's floor is relative to the fault-free run,
        # so the baseline executes whenever either row is selected
        base_goodput, base_errors, base_dups, base_part, base_tele = (
            _chaos_mirrored(
                requests, flight_dir=flight_dir,
                scenario="mirrored_baseline",
            )
        )
        if want("mirrored_baseline"):
            base_ok = base_errors == 0 and base_dups == 0 and base_part
            base_bundle = None
            if not base_ok:
                base_bundle = base_tele["_dump"](
                    "chaos:mirrored_baseline",
                    detail="invariant check failed",
                )
            details["mirrored_baseline"] = {
                "metrics": base_tele["metrics"],
                "flight_bundle": (
                    str(base_bundle) if base_bundle is not None else None
                ),
            }
            mirror.add_row(
                "mirrored_baseline", to_gb_per_s(base_goodput),
                base_errors, base_dups, base_ok,
            )
        if want("mirrored_reactor_crash"):
            goodput, errors, dups, partition_ok, crash_tele = (
                _chaos_mirrored(
                    requests, crash_at=0.3e-3, flight_dir=flight_dir,
                    scenario="mirrored_reactor_crash",
                )
            )
            floor = 0.4 * base_goodput
            crash_ok = (
                errors == 0 and dups == 0 and partition_ok
                and goodput >= floor
            )
            crash_bundle = None
            if not crash_ok:
                crash_bundle = crash_tele["_dump"](
                    "chaos:mirrored_reactor_crash",
                    detail="invariant check failed",
                )
            details["mirrored_reactor_crash"] = {
                "metrics": crash_tele["metrics"],
                "flight_bundle": (
                    str(crash_bundle) if crash_bundle is not None
                    else None
                ),
            }
            mirror.add_row(
                "mirrored_reactor_crash", to_gb_per_s(goodput), errors,
                dups, crash_ok,
            )

    # network partitions on the disaggregated tier (the PR 9 frontier)
    net_requests = 160 if quick else 480
    net_scenarios = [
        (
            "net_partition",
            {"partition": (0.5e-3, 1.0e-3)},
            lambda o: o["degraded_entries"] >= 1 and o["resyncs"] >= 1,
        ),
        (
            "net_flap",
            {"flap": (0.3e-3, 0.4e-3, 4)},
            lambda o: o["goodput"] > 0,
        ),
        (
            "net_brownout",
            {"brownout": (0.2e-3, 2.0e-3, 40.0)},
            lambda o: o["errors"] == 0 and o["hedged"] >= 1,
        ),
        (
            "net_partition_during_resync",
            {
                "partition": (0.4e-3, 0.8e-3),
                "second_partition": (1.5e-3, 0.6e-3),
            },
            lambda o: o["degraded_entries"] >= 1 and o["resyncs"] >= 2,
        ),
    ]
    if any(want(name) for name, _, _ in net_scenarios):
        net_table = result.add_table(
            Table(
                "disaggregated tier, 2 replica nodes, fabric faults",
                ["scenario", "offered", "ok", "net_errors",
                 "goodput_GB/s", "degraded", "resyncs", "hedged",
                 "dirty_after", "readback_ok", "invariants_ok"],
            )
        )

        def check_net(out):
            # the PR 4 invariants, generalized multi-node: every op
            # terminated (closed loop returned), each as success or
            # typed error; post-heal resync drained the dirty log; the
            # remote read-back saw every acked write, no stale data
            return (
                out["ok"] + out["errors"] == out["offered"]
                and out["error_types"] <= {
                    "LinkPartitionedError", "RemoteTimeoutError",
                    "RemoteUnavailableError", "NetworkError",
                }
                and out["dirty_after"] == 0
                and out["healed"]
                and out["verify_failures"] == 0
                and out["readback_failures"] == 0
            )

        for name, kwargs, extra_check in net_scenarios:
            if not want(name):
                continue
            out = _chaos_disagg(
                requests=net_requests, flight_dir=flight_dir,
                scenario=name, **kwargs,
            )
            ok = check_net(out) and extra_check(out)
            bundle = None
            if not ok:
                bundle = out["_dump"](
                    f"chaos:{name}", detail="invariant check failed"
                )
            details[name] = {
                "metrics": out["metrics"],
                "flight_bundle": (
                    str(bundle) if bundle is not None else None
                ),
            }
            net_table.add_row(
                name, out["offered"], out["ok"], out["errors"],
                to_gb_per_s(out["goodput"]), out["degraded_entries"],
                out["resyncs"], out["hedged"], out["dirty_after"],
                out["readback_failures"] == 0
                and out["verify_failures"] == 0,
                ok,
            )

    result.note(
        "invariants_ok folds: submitted==terminated (every admitted "
        "request reached exactly one end state), offered==submitted+"
        "shed, zero duplicate completions, SSD->reactor map is a "
        "partition over alive reactors, plus the per-scenario check "
        "(retries absorb media faults, offline devices surface typed "
        "errors, failover keeps crash/stall error-free, overload sheds "
        "with bounded p99, mirrored goodput >= 40% of fault-free). "
        "Network scenarios fold in the partition invariants: ops never "
        "hang (typed NetworkError or degraded-tier serve), post-heal "
        "resync drains the dirty log, and a full remote read-back "
        "verifies no lost or stale writes"
    )
    return result
