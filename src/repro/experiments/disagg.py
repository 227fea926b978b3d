"""Disaggregated flash tier: local vs remote vs tiered.

The CAM paper's evaluation is strictly local NVMe.  This study asks
what its batching storage plane costs when the capacity tier moves to
the other side of a fabric (the EC2/Azure disaggregated-flash shape
related work targets):

* **local-only** — the plain CAM backend on direct-attached SSDs; the
  goodput ceiling.
* **remote-direct** — every request crosses the fabric to 2 replica
  nodes (:class:`~repro.net.remote.RemoteFlashBackend`: deadline
  timeouts + hedged reads + per-node breakers).
* **tiered** — local NVMe runs as a write-back cache over the remote
  capacity (:class:`~repro.net.tiered.TieredBackend`); hot pages are
  served at local speed, the dirty log batches write-backs.

The second panel replays the same tiered stack under fabric faults
(partition / brownout) and reports availability: a partition must
never hang a request — every op completes, fails with a typed
``NetworkError``, or is served from the degraded local tier.
"""

from __future__ import annotations

from repro.config import PlatformConfig
from repro.experiments.report import ExperimentResult, Table
from repro.hw.platform import Platform
from repro.units import KiB, MiB, to_gb_per_s

#: cache-friendly workload shape shared with ``run_bench.py``'s
#: ``disagg`` sweep (tiered must keep >= 80 % of local goodput)
WORKLOAD = {
    "granularity": 4 * KiB,
    "skew": 1.5,
    "spread_blocks": 1 << 14,  # 2048 distinct 4 KiB pages (8 MiB hot set)
    "write_fraction": 0.2,
    "seed": 23,
}


def disagg_goodput(quick: bool = True) -> dict:
    """Goodput of the three configurations on the cache-friendly
    workload; returns ``{config: {"gb_per_s", "hit_rate", "p99_us"}}``.

    Shared by :func:`run_disagg` and ``run_bench.py``'s ``disagg`` sweep
    so both report the same numbers.
    """
    from repro.backends import make_backend
    from repro.net import build_disagg
    from repro.workloads.trace import TraceReplayer, make_zipfian_trace

    requests = 1600 if quick else 8000
    out = {}
    for config in ("local-only", "remote-direct", "tiered"):
        platform = Platform(PlatformConfig(num_ssds=2), functional=False)
        if config == "local-only":
            backend = make_backend("cam", platform)
        else:
            backend = build_disagg(
                platform,
                num_nodes=2,
                tiered=(config == "tiered"),
                functional=False,
                capacity_bytes=16 * MiB,
                flush_watermark=64,
                deadline=10e-3,
                hedge_after=1e-3,
            )
        def trace_for(seed):
            return make_zipfian_trace(
                requests,
                granularity=WORKLOAD["granularity"],
                target_iops=10_000_000,
                skew=WORKLOAD["skew"],
                spread_blocks=WORKLOAD["spread_blocks"],
                write_fraction=WORKLOAD["write_fraction"],
                seed=seed,
            )

        replayer = TraceReplayer(backend)
        # warm pass populates the tier; the measured pass is steady
        # state (every config replays both, so elapsed time compares
        # identical offered work)
        replayer.replay(trace_for(WORKLOAD["seed"]), open_loop=False,
                        concurrency=32)
        if config == "tiered":
            backend.hits.reset()
            backend.misses.reset()
        report = replayer.replay(
            trace_for(WORKLOAD["seed"] + 1), open_loop=False,
            concurrency=32,
        )
        out[config] = {
            "gb_per_s": to_gb_per_s(report.achieved_bytes_per_s),
            "hit_rate": (
                backend.hit_rate() if config == "tiered" else 0.0
            ),
            "p99_us": report.latency_percentile(99) * 1e6,
        }
    return out


def run_disagg(quick: bool = True) -> ExperimentResult:
    from repro.experiments.extras import _chaos_disagg

    result = ExperimentResult(
        exp_id="disagg",
        title="Disaggregated flash tier: goodput and partition tolerance",
        paper_expectation=(
            "not in the paper (local NVMe only); related disaggregated "
            "designs expect a local cache tier to recover most of the "
            "direct-attached goodput on skewed traffic while the fabric "
            "only taxes misses, and a partition to degrade service "
            "rather than hang it"
        ),
    )

    perf = result.add_table(
        Table(
            "zipf(1.5) 4 KiB 80/20 r/w, 8 MiB hot set, 2 replica nodes",
            ["configuration", "GB/s", "vs_local", "hit_rate", "p99_us"],
        )
    )
    rates = disagg_goodput(quick=quick)
    local = rates["local-only"]["gb_per_s"]
    for config in ("local-only", "remote-direct", "tiered"):
        row = rates[config]
        perf.add_row(
            config,
            row["gb_per_s"],
            row["gb_per_s"] / local if local else 0.0,
            row["hit_rate"],
            row["p99_us"],
        )

    faults = result.add_table(
        Table(
            "tiered stack under fabric faults (closed loop, mixed r/w)",
            ["fault", "offered", "ok", "net_errors", "goodput_GB/s",
             "degraded", "resyncs", "dirty_after", "readback_ok"],
        )
    )
    requests = 160 if quick else 480
    for fault, kwargs in (
        ("none", {}),
        ("partition 0.5-1.5ms", {"partition": (0.5e-3, 1.0e-3)}),
        ("brownout x40 node0", {"brownout": (0.2e-3, 2.0e-3, 40.0)}),
    ):
        out = _chaos_disagg(requests=requests, **kwargs)
        faults.add_row(
            fault,
            out["offered"],
            out["ok"],
            out["errors"],
            to_gb_per_s(out["goodput"]),
            out["degraded_entries"],
            out["resyncs"],
            out["dirty_after"],
            out["readback_failures"] == 0 and out["dirty_after"] == 0,
        )
    result.note(
        "tiered goodput gate (>= 80 % of local-only) is enforced by "
        "run_bench.py's disagg sweep; the fault panel's readback "
        "re-reads every acked write from the remote tier after resync"
    )
    result.note(
        "remote-direct pays the fabric on every request; the tier pays "
        "it only on cold misses and batched dirty-log write-backs"
    )
    return result
