"""Serving study: TTFT and tokens/s over an SSD-backed KV cache.

``run_serving`` sweeps concurrent session counts (10^2 -> 10^4 in full
mode) over CAM, BaM and GDS with a *fixed* KV residency budget, so
memory pressure — and with it the share of turns that must prefetch
evicted KV blocks from SSD — grows with the session count.  The paper's
asynchronous-API argument transfers directly: CAM overlaps the KV
prefetch with prefill compute and the write-back of fresh blocks with
decode compute, while the synchronous paths pay those transfers on the
TTFT critical path.

A second panel compares eviction policies on CAM: plain LRU against the
prefix-aware sliding window (StreamingLLM-style), which both shrinks the
per-turn prefetch set and steers eviction at dead-weight blocks.

``serve_once`` is the single entry point every harness uses (this
experiment, the ``serving`` and ``cache`` sweeps of
``benchmarks/perf/run_bench.py``, the tests), so the configuration under
measurement is defined exactly once.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.backends.base import make_backend
from repro.config import PlatformConfig
from repro.experiments.report import ExperimentResult, Table
from repro.hw.platform import Platform
from repro.serving import (
    KvBlockStore,
    KvLayout,
    ServingEngine,
    ServingResult,
    SessionConfig,
    SessionPool,
    SlidingWindowPolicy,
)

#: the canonical serving scenario (docs/SERVING.md documents the why)
NUM_SSDS = 12
CAPACITY_BLOCKS = 512
MAX_CONCURRENT_DECODES = 64
SESSION_KWARGS = dict(
    seed=17,
    mean_think_s=20e-3,
    turns_min=2,
    turns_max=4,
)


def serve_once(
    backend_name: str,
    num_sessions: int,
    policy: Optional[object] = None,
    metrics: bool = False,
    capacity_blocks: int = CAPACITY_BLOCKS,
    reliability: bool = False,
    gpu_cache_blocks: int = 0,
    readahead: bool = True,
) -> Tuple[ServingResult, float]:
    """One serving run; returns ``(result, sim_end)``.

    ``sim_end`` is the environment clock after the run — the value the
    bench harness compares across metrics-on/off runs for bit identity.
    ``reliability`` attaches the full PR-4 bundle (retries, breakers,
    watchdogs) to the backend.  ``gpu_cache_blocks`` > 0 puts a
    GPU-memory cache tier (lines sized to the KV block) in front of the
    storage path; ``readahead`` toggles its prefetcher.  The default
    (``0``) keeps the engine's event sequence bit-identical to pre-cache
    builds.
    """
    platform = Platform(
        PlatformConfig(num_ssds=NUM_SSDS), functional=False
    )
    if metrics:
        from repro.obs import install_metrics

        install_metrics(platform.env)
    backend_kwargs = {}
    if reliability:
        from repro.reliability import Reliability

        backend_kwargs["reliability"] = Reliability(platform)
    backend = make_backend(backend_name, platform, **backend_kwargs)
    layout = KvLayout()
    store = KvBlockStore(
        platform, layout, capacity_blocks=capacity_blocks,
        policy=policy,
    )
    pool = SessionPool(
        SessionConfig(num_sessions=num_sessions, **SESSION_KWARGS)
    )
    gpu_cache = None
    if gpu_cache_blocks:
        from repro.cache import GpuCache

        gpu_cache = GpuCache(
            platform,
            capacity_bytes=gpu_cache_blocks * layout.block_bytes,
            line_bytes=layout.block_bytes,
            readahead=readahead,
        )
    engine = ServingEngine(
        platform, backend, store, pool,
        max_concurrent_decodes=MAX_CONCURRENT_DECODES,
        gpu_cache=gpu_cache,
    )
    result = engine.run()
    return result, platform.env.now


def run_serving(quick: bool = True) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="serving",
        title="LLM serving over SSD-backed KV cache: TTFT and tokens/s",
        paper_expectation=(
            "CAM's asynchronous batched API overlaps KV prefetch with "
            "prefill and write-back with decode, so its TTFT tail "
            "stays flat as concurrent sessions (and KV memory "
            "pressure) grow; synchronous BaM-style access pays the "
            "transfers on the critical path and GDS collapses under "
            "its CPU-mediated control plane"
        ),
    )
    session_counts = (100, 250, 500) if quick else (100, 1000, 10000)
    sweep = result.add_table(
        Table(
            "TTFT / throughput vs concurrent sessions (fixed KV budget)",
            ["system", "sessions", "ttft_p50_ms", "ttft_p99_ms",
             "tokens_per_s", "kv_hit_rate", "kv_evictions"],
        )
    )
    for num_sessions in session_counts:
        for name in ("cam", "bam", "gds"):
            run, _ = serve_once(name, num_sessions)
            sweep.add_row(
                name,
                num_sessions,
                run.ttft_p50 * 1e3,
                run.ttft_p99 * 1e3,
                run.tokens_per_s,
                run.kv_hit_rate,
                run.kv_evictions,
            )

    policy_sessions = session_counts[1]
    policies = result.add_table(
        Table(
            f"eviction policy on cam ({policy_sessions} sessions)",
            ["policy", "ttft_p50_ms", "ttft_p99_ms", "tokens_per_s",
             "kv_hit_rate", "kv_evictions"],
        )
    )
    for policy in (None, SlidingWindowPolicy(window_blocks=2,
                                             prefix_blocks=1)):
        run, _ = serve_once("cam", policy_sessions, policy=policy)
        policies.add_row(
            run.policy,
            run.ttft_p50 * 1e3,
            run.ttft_p99 * 1e3,
            run.tokens_per_s,
            run.kv_hit_rate,
            run.kv_evictions,
        )

    top = session_counts[-1]
    cam_p99 = next(
        row[3] for row in sweep.rows
        if row[0] == "cam" and row[1] == top
    )
    bam_p99 = next(
        row[3] for row in sweep.rows
        if row[0] == "bam" and row[1] == top
    )
    result.note(
        f"at {top} sessions CAM TTFT p99 = {cam_p99:.2f} ms vs "
        f"BaM {bam_p99:.2f} ms "
        f"({'pass' if cam_p99 < bam_p99 else 'FAIL'}: async overlap "
        f"keeps the tail off the I/O critical path)"
    )
    result.note(
        "the sliding-window policy prefetches only prefix+window "
        "blocks per turn and evicts dead-weight blocks first, trading "
        "attention coverage for hit rate"
    )
    return result


run = run_serving
