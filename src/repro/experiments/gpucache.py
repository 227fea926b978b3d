"""GPU-cache study: reuse-heavy workloads through the GPU cache tier.

Both shipped workloads have the locality a GPU-memory cache absorbs
entirely:

* **graph sampling** — power-law graphs have hot hub vertices that
  appear in almost every sampled batch, and the sampler's sorted
  ``unique_nodes`` sets produce long stride-1 feature runs that the
  readahead detector converts into speculative CAM prefetch batches;
* **KV-cache serving** — shared prefixes and sliding-window reuse mean
  evicted KV blocks are often re-read shortly after their write-back
  filled the cache.

``graph_cache_once`` is the single graph-workload entry point shared by
this experiment, ``benchmarks/perf/run_bench.py`` (the ``cache`` sweep's
gates) and the tests; ``serve_once`` plays the same role for serving.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backends.base import make_backend
from repro.cache import GpuCache
from repro.config import PlatformConfig
from repro.errors import ConfigurationError
from repro.experiments.report import ExperimentResult, Table
from repro.hw.platform import Platform
from repro.workloads.gnn.graph import random_power_law_graph
from repro.workloads.gnn.sampling import NeighborSampler

#: the canonical graph-cache scenario (docs/CACHING.md documents it)
FEATURE_BYTES = 4096
GRAPH_KWARGS = dict(num_nodes=4096, avg_degree=8, seed=3)
SAMPLER_KWARGS = dict(fanouts=(10, 5), seed=3)


def graph_cache_once(
    mode: str,
    num_batches: int = 8,
    batch_size: int = 128,
    cache_lines: int = 1024,
) -> Tuple[dict, float]:
    """Feature extraction for sampled batches through the cache tier.

    ``mode`` is ``off`` (every feature is a CAM prefetch), ``cache``
    (GPU cache, readahead disabled) or ``cache+ra`` (readahead on).
    Returns ``(summary, sim_end)``; the summary's ``bytes_per_s`` is
    demand feature bytes over simulated seconds — speculative fetches
    are deliberately *not* counted as goodput.
    """
    if mode not in ("off", "cache", "cache+ra"):
        raise ConfigurationError(
            f"mode {mode!r} not in ('off', 'cache', 'cache+ra')"
        )
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    env = platform.env
    backend = make_backend("cam", platform)
    context = backend.context
    block = platform.config.ssd.block_size
    lbas_per_feature = FEATURE_BYTES // block
    cache: Optional[GpuCache] = None
    if mode != "off":
        cache = GpuCache(
            platform,
            capacity_bytes=cache_lines * FEATURE_BYTES,
            line_bytes=FEATURE_BYTES,
            readahead=(mode == "cache+ra"),
        )
    graph = random_power_law_graph(**GRAPH_KWARGS)
    sampler = NeighborSampler(graph, **SAMPLER_KWARGS)
    train_nodes = np.arange(graph.num_nodes, dtype=np.int64)
    batches = []
    for batch in sampler.epoch_batches(train_nodes, batch_size):
        batches.append(sampler.sample(batch))
        if len(batches) >= num_batches:
            break
    demand_bytes = sum(s.num_unique for s in batches) * FEATURE_BYTES

    def speculate(plan):
        # background best-effort batch: demand never waits on it
        try:
            api = context.device_api()
            yield from api.prefetch(
                np.asarray(plan.speculative_lbas, dtype=np.int64),
                None,
                FEATURE_BYTES,
            )
            yield from api.prefetch_synchronize()
        except Exception:
            cache.abort_speculative(plan)
            return
        cache.commit_speculative(plan)

    def epoch():
        for stats in batches:
            lbas = stats.unique_nodes * lbas_per_feature
            if cache is None:
                api = context.device_api()
                yield from api.prefetch(lbas, None, FEATURE_BYTES)
                yield from api.prefetch_synchronize()
            else:
                plan = cache.access_batch(
                    [int(lba) for lba in lbas],
                    granularity=FEATURE_BYTES,
                )
                if plan.speculative_lbas:
                    env.process(speculate(plan))
                if plan.hit_lbas:
                    yield env.timeout(cache.hit_seconds(
                        len(plan.hit_lbas) * FEATURE_BYTES
                    ))
                if plan.missing_lbas:
                    api = context.device_api()
                    yield from api.prefetch(
                        np.asarray(plan.missing_lbas, dtype=np.int64),
                        None,
                        FEATURE_BYTES,
                    )
                    yield from api.prefetch_synchronize()
                cache.commit_demand(plan)
            # aggregation kernel over the gathered features — the
            # compute phase speculation overlaps with
            yield env.timeout(platform.gpu.kernel_time(
                bytes_accessed=stats.num_unique * FEATURE_BYTES
            ))

    start = env.now
    env.run(env.process(epoch()))
    elapsed = env.now - start
    summary = {
        "mode": mode,
        "batches": len(batches),
        "demand_bytes": demand_bytes,
        "bytes_per_s": demand_bytes / elapsed if elapsed else 0.0,
        "hit_rate": cache.hit_rate() if cache else 0.0,
        "readahead_issued": cache.readahead_issued if cache else 0,
        "readahead_used": cache.readahead_used if cache else 0,
        "readahead_accuracy": (
            cache.readahead_accuracy() if cache else 0.0
        ),
    }
    return summary, env.now


def run_gpucache(quick: bool = True) -> ExperimentResult:
    from repro.experiments.serving import serve_once

    result = ExperimentResult(
        exp_id="gpucache",
        title="GPU-memory cache tier with readahead on reuse workloads",
        paper_expectation=(
            "hub vertices and re-read KV blocks are served from GPU "
            "DRAM instead of SSD round trips, and the stride detector "
            "turns the sampler's sorted feature runs into speculative "
            "CAM prefetch batches; mispredicted streams throttle "
            "themselves via the issued/used accuracy loop"
        ),
    )
    num_batches = 8 if quick else 32
    graph_table = result.add_table(
        Table(
            "graph feature extraction (power-law hubs, cam backend)",
            ["mode", "GB_per_s", "hit_rate", "ra_issued", "ra_used",
             "ra_accuracy"],
        )
    )
    for mode in ("off", "cache", "cache+ra"):
        summary, _ = graph_cache_once(mode, num_batches=num_batches)
        graph_table.add_row(
            mode,
            summary["bytes_per_s"] / 1e9,
            summary["hit_rate"],
            summary["readahead_issued"],
            summary["readahead_used"],
            summary["readahead_accuracy"],
        )

    sessions = 100 if quick else 250
    serving_table = result.add_table(
        Table(
            f"kv-cache serving on cam ({sessions} sessions)",
            ["mode", "tokens_per_s", "ttft_p99_ms"],
        )
    )
    for mode, kwargs in (
        ("off", dict()),
        ("cache", dict(gpu_cache_blocks=2048, readahead=False)),
        ("cache+ra", dict(gpu_cache_blocks=2048, readahead=True)),
    ):
        run, _ = serve_once("cam", sessions, **kwargs)
        serving_table.add_row(
            mode, run.tokens_per_s, run.ttft_p99 * 1e3
        )

    off = graph_table.rows[0][1]
    ra = graph_table.rows[2][1]
    result.note(
        f"graph feature goodput {ra:.2f} GB/s with cache+readahead vs "
        f"{off:.2f} GB/s uncached "
        f"({'pass' if ra >= off else 'FAIL'}: reuse served from HBM)"
    )
    result.note(
        "serving gains are deliberately modest: CAM already overlaps "
        "KV prefetch with prefill, so the cache removes SSD *load*, "
        "not critical-path latency"
    )
    return result


run = run_gpucache
