"""Golden table: every pin and bound the simulated gates compare against.

Each row is ``name -> Golden(value, commit, reason)``: the value, the
commit it was measured or set at, and why the simulation must hold it.
``benchmarks/perf/run_bench.py`` and the tests read their pins from
here; a change that moves one of these values changed the simulation,
and must say why in CHANGES.md along with the new row.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class Golden(NamedTuple):
    value: Any
    commit: str
    reason: str


GOLDEN = {
    "fig08_batch_sim_end": Golden(
        0.018738140996340358, "295ed5b",
        "fig08-scale reads (8 SSDs, 10 x 8192 x 4 KiB) through CamManager: "
        "the coalesced walk, the fan-out path, the reliability bundle and "
        "live telemetry all replay this simulated end time",
    ),
    "serving_cache_off_sim_end": Golden(
        {100: 0.14012175802083016, 250: 0.17987053305953946}, "784ef20",
        "CAM KV-cache serving per session count with no GPU cache: the "
        "cache tier must cost nothing when it is not constructed",
    ),
    "causal_serving_sim_end": Golden(
        {"base": 0.056711110155127975,
         "fabric-brownout": 0.09715040047601584}, "47b58bd",
        "cam-trace serving demo at 20 sessions per scenario: causal "
        "tracing, bare spans and no tracing all end here",
    ),
    "disagg_goodput_floor": Golden(
        0.80, "1d02a36",
        "the write-back tier must keep this share of local-only goodput "
        "on the cache-friendly zipf workload",
    ),
    "autotune_tolerance": Golden(
        1e-6, "2139913",
        "float slack on elastic >= best static throughput, so identical "
        "simulated runs tie instead of failing on rounding",
    ),
}
