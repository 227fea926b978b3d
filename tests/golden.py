"""Golden table: every pin and bound the simulated gates compare against.

Each row is ``name -> Golden(value, commit, reason)``: the value, the
commit it was measured or set at, and why the simulation must hold it.
``cambench_fingerprint`` nests one row per workload and seed.
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


def _cambench_rows(commit, reason, rows):
    """One cambench workload's rows: ``seed -> Golden`` of its
    ``sim_fingerprint`` and ``sim.events`` (``run_bench.py``'s
    ``cambench`` sweep)."""
    return {
        seed: Golden(
            {"sim_fingerprint": fingerprint, "sim.events": events},
            commit, reason,
        )
        for seed, (fingerprint, events) in rows.items()
    }


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
    "autotune_batch_loop": Golden(
        {
            "compute-bound": {
                "final_cores": 3, "sim_end": 0.0400096, "events": 94535,
            },
            "io-bound": {
                "final_cores": 6, "sim_end": 0.003781990739927514,
                "events": 98506,
            },
        },
        "49130e2",
        "the paper's per-batch core signal on the 12-SSD pipeline loop "
        "(8 x 2048 x 4 KiB, 5 ms or no compute): it sheds to N/4 under "
        "compute and holds N/2 under I/O, at the static allocations' "
        "simulated end",
    ),
    "host_cache_pinned": Golden(
        {
            "spdk": {
                "gb_per_s": 16.743278287675096,
                "hit_rate": 0.7366666666666667,
                "evictions": 173, "sim_end": 0.0002935625816849817,
            },
            "cam": {
                "gb_per_s": 15.805641509771105,
                "hit_rate": 0.7383333333333333,
                "evictions": 170, "sim_end": 0.0003109775706959699,
            },
        },
        "924b7ff",
        "the host-cache study's zipf trace (1200 x 4 KiB reads, 2 SSDs) "
        "through a 128 KiB CachedBackend over SPDK and over CAM: 32 pages "
        "against its 2 MiB cache's 512, so the trace evicts and every "
        "victim the residency core picks moves these numbers",
    ),
    "window_policy_pinned": Golden(
        {
            250: {"sim_end": 0.17984320810715848, "kv_evictions": 3268,
                  "kv_hit_rate": 0.35133239831697055},
            1000: {"sim_end": 0.360212207501297, "kv_evictions": 17210,
                   "kv_hit_rate": 0.10361402884101834},
        },
        "924b7ff",
        "CAM KV-cache serving under SlidingWindowPolicy(window_blocks=2, "
        "prefix_blocks=1): its dead-first, pinned-aware evictions hold "
        "this simulated end, eviction count and hit rate",
    ),
    "autotune_tolerance": Golden(
        1e-6, "2139913",
        "float slack on elastic >= best static throughput, so identical "
        "simulated runs tie instead of failing on rounding",
    ),
    "cambench_fingerprint": {
        "batch_read": _cambench_rows(
            "250c9c8", "the coalesced fail-fast walk's simulated timeline", {
                17: ("4c3d0067fdbaa728", 227146),
                18: ("778a7041e2825720", 226811),
                19: ("2d2d6fb027454965", 226971),
            },
        ),
        "batch_rw_reliable": _cambench_rows(
            "250c9c8", "the reliable walk's timeline under injected media "
            "errors: retries, watchdog deadlines and re-drives", {
                17: ("1f29a95b06f5e02f", 236983),
                18: ("6d5937fe8f8c3ffd", 237700),
                19: ("343416a631d6ea51", 237521),
            },
        ),
        "serving_kv": _cambench_rows(
            "250c9c8", "10^4-session serving; sessions start at their "
            "arrival under reserved heap keys, which took sim.events "
            "down by exactly 9 998 (N - 2 for N sessions) from "
            "1 962 281 / 1 970 805 / 1 962 805 at 250c9c8 itself, with "
            "every other simulated metric unchanged", {
                17: ("15219e443fb99eb1", 1952283),
                18: ("e36264413e0b033e", 1960807),
                19: ("59ad0fa31db00a79", 1952807),
            },
        ),
        "graph_cache": _cambench_rows(
            "250c9c8", "GPU cache residency and readahead on the GNN "
            "feature gather", {
                17: ("9d41130574a0b2b2", 277389),
                18: ("e5f3e679592fd386", 281062),
                19: ("693fdbc1b7e7b48a", 274277),
            },
        ),
        "disagg_tiered": _cambench_rows(
            "250c9c8", "the remote flash tier: fabric, replicas and "
            "write-back", {
                17: ("1a595e3899e32856", 369374),
                18: ("c579c8f677c2d15a", 373221),
                19: ("13f9e863f66662db", 371626),
            },
        ),
    },
}
