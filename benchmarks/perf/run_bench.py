"""Simulated gates: six sweeps checked against the golden table.

Each sweep in :data:`SWEEPS` returns ``(measurements, gates)``: the
simulated numbers it measured, and named booleans comparing them with
the pins and bounds of ``tests/golden.py``.  Simulated quantities do not
depend on the host, so a false gate is a changed simulation, and the
harness exits 1.  The simulator's own speed is measured by
``benchmarks/cambench``; nothing here reads the host clock, so two runs
at one commit write byte-identical files.

* ``batch`` — Fig. 8 scale (8 SSDs, 10 doorbell batches of 8192 x 4 KiB
  reads) through the coalesced CAM control plane: fail-fast, with the
  reliability bundle, and with live telemetry.  Each ends at the pinned
  simulated instant.
* ``autotune`` — the fig12 pipeline loop per compute/I-O mix under the
  sampler-driven elastic controller vs static core counts: the
  controller stays in the [N/4, N/2] band and reaches the best static
  throughput.  The paper's own per-batch loop (an autotuning
  ``CamContext``) ends each of its two mixes at the pinned final cores,
  simulated instant and heap events.
* ``serving`` — KV-cache serving on CAM, BaM and GDS at 10^2-10^4
  sessions: CAM's TTFT p99 beats BaM's at the top count, and a
  metrics-on run ends where the plain run does.
* ``cache`` — the GPU cache tier on the graph and serving reuse
  workloads: cache + readahead keeps up with cache-off, and cache-off
  serving ends at its pinned instants.  The two residency consumers no
  other gate reaches hold their pins: the host-cache study's trace
  through a 128 KiB ``CachedBackend`` that evicts, and serving under the
  sliding-window KV policy.
* ``disagg`` — the remote flash tier: tiered keeps the goodput floor
  of local-only, and a fabric partition ends every request, heals and
  loses no acked write.
* ``cambench`` — each workload of ``benchmarks/cambench`` once per
  seed in :data:`CAMBENCH_SEEDS`: its ``sim_fingerprint`` (a hash of
  every simulated metric, to the last bit) and its heap events hold the
  golden rows, so a "same simulated timeline" claim is a blocking check
  rather than a hand-run ``compare``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/run_bench.py --output-dir bench
    PYTHONPATH=src python benchmarks/perf/run_bench.py --only cache --output-dir bench

Each sweep writes ``DIR/BENCH_<name>.json`` as ``{sweep, commit,
python, gates, measurements}``; the harness prints one line per gate.
``--output-dir .`` refreshes the tracked records at the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.hw.platform import Platform
from repro.obs import install_metrics, install_sampler
from repro.reliability import Reliability

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))
from tests.golden import GOLDEN  # noqa: E402

#: the Fig. 8 scale batch workload
FIG08 = {
    "num_ssds": 8, "batches": 10, "requests_per_batch": 8192,
    "granularity": 4096, "is_write": False,
}

#: simulated seconds between telemetry samples in the metrics-on run
SAMPLER_INTERVAL = 100e-6

#: static core counts the elastic controller races (the paper band
#: endpoints for 12 SSDs, plus a midpoint), and loop iterations per mix
AUTOTUNE_STATIC_CORES = (3, 4, 6)
AUTOTUNE_ITERATIONS = 8

#: concurrent-session points of the serving sweep; the TTFT gate is
#: read at the last one
SERVING_SESSION_COUNTS = (100, 1000, 10000)

#: GPU cache size for the serving points of the cache sweep (64 KiB
#: KV-block lines)
CACHE_GPU_BLOCKS = 2048

#: the host-cache pin: the study's quick trace through 32 cache pages
HOST_CACHE_REQUESTS = 1200
HOST_CACHE_BYTES = 128 * 1024

#: the sliding-window serving pin: its policy and session counts
WINDOW_POLICY = {"window_blocks": 2, "prefix_blocks": 1}
WINDOW_POLICY_SESSIONS = (250, 1000)

#: seeds each cambench workload runs at in the cambench sweep
CAMBENCH_SEEDS = (17, 18, 19)


def _fig08_run(reliable=False, metrics=False):
    platform = Platform(
        PlatformConfig(num_ssds=FIG08["num_ssds"]), functional=False
    )
    manager = CamManager(
        platform, reliability=Reliability(platform) if reliable else None
    )
    env = platform.env
    if metrics:
        sampler = install_sampler(
            install_metrics(env), manager=manager, interval=SAMPLER_INTERVAL
        )
    requests = FIG08["requests_per_batch"]
    for index in range(FIG08["batches"]):
        lbas = (np.arange(requests, dtype=np.int64) * 3 + index) % (1 << 20)
        env.run(manager.ring(BatchRequest(
            lbas=lbas, granularity=FIG08["granularity"],
            is_write=FIG08["is_write"],
        )))
    if metrics:
        sampler.stop()
    return {"events": env.events_processed, "sim_end": env.now}


def batch():
    runs = {
        "fail_fast": _fig08_run(),
        "reliable": _fig08_run(reliable=True),
        "metrics": _fig08_run(metrics=True),
    }
    pin = GOLDEN["fig08_batch_sim_end"].value
    gates = {
        f"{name}_sim_end_pinned": run["sim_end"] == pin
        for name, run in runs.items()
    }
    measurements = {
        "workload": FIG08, "sampler_interval_s": SAMPLER_INTERVAL, **runs,
    }
    return measurements, gates


def autotune():
    from repro.experiments.extras import (
        BATCH_LOOP_MIXES,
        ELASTIC_MIXES,
        LOOP_REQUESTS,
        LOOP_SSDS,
        _batch_loop,
        _elastic_loop,
    )

    tolerance = GOLDEN["autotune_tolerance"].value
    mixes, gates = {}, {}
    for mix, compute_time in ELASTIC_MIXES:
        out = _elastic_loop(compute_time, AUTOTUNE_ITERATIONS)
        elastic = {
            "sim_s": out["wall"],
            "throughput_bytes_per_s": out["bytes"] / out["wall"],
            "final_cores": out["final_cores"],
            "min_cores_seen": out["min_cores_seen"],
            "max_cores_seen": out["max_cores_seen"],
            "core_seconds": round(out["core_seconds"], 9),
            "resizes": out["resizes"],
        }
        statics = {}
        for cores in AUTOTUNE_STATIC_CORES:
            static = _elastic_loop(
                compute_time, AUTOTUNE_ITERATIONS, static_cores=cores
            )
            statics[str(cores)] = {
                "sim_s": static["wall"],
                "throughput_bytes_per_s": static["bytes"] / static["wall"],
                "core_seconds": round(static["core_seconds"], 9),
            }
        best = max(s["throughput_bytes_per_s"] for s in statics.values())
        most_cores = statics[str(max(AUTOTUNE_STATIC_CORES))]
        mixes[mix] = {
            "compute_time_s": compute_time,
            "band": list(out["bounds"]),
            "elastic": elastic,
            "static": statics,
            "best_static_throughput_bytes_per_s": best,
            "core_seconds_saved_vs_static_max": round(
                most_cores["core_seconds"] - elastic["core_seconds"], 9
            ),
        }
        lo, hi = out["bounds"]
        gates[f"{mix}.in_band"] = (
            lo <= elastic["min_cores_seen"] <= elastic["max_cores_seen"] <= hi
        )
        gates[f"{mix}.reaches_best_static"] = (
            elastic["throughput_bytes_per_s"] >= best * (1 - tolerance)
        )
    pins = GOLDEN["autotune_batch_loop"].value
    batch_loop = {}
    for mix, compute_time in BATCH_LOOP_MIXES:
        out = _batch_loop(compute_time, "autotune", AUTOTUNE_ITERATIONS)
        batch_loop[mix] = out
        gates[f"batch_loop.{mix}.pinned"] = out == pins[mix]
    measurements = {
        "workload": {
            "num_ssds": LOOP_SSDS, "iterations": AUTOTUNE_ITERATIONS,
            "requests_per_batch": LOOP_REQUESTS, "granularity": 4096,
            "static_cores": list(AUTOTUNE_STATIC_CORES),
        },
        "mixes": mixes,
        "batch_loop": batch_loop,
    }
    return measurements, gates


def serving():
    from repro.experiments.serving import (
        CAPACITY_BLOCKS,
        MAX_CONCURRENT_DECODES,
        NUM_SSDS,
        SESSION_KWARGS,
        serve_once,
    )

    points = []
    for sessions in SERVING_SESSION_COUNTS:
        cells = {}
        for name in ("cam", "bam", "gds"):
            run, sim_end = serve_once(name, sessions)
            cells[name] = {
                "sim_s": run.elapsed_s,
                "sim_end": sim_end,
                "ttft_p50_ms": round(run.ttft_p50 * 1e3, 4),
                "ttft_p99_ms": round(run.ttft_p99 * 1e3, 4),
                "tokens_per_s": round(run.tokens_per_s, 1),
                "kv_hit_rate": round(run.kv_hit_rate, 4),
                "kv_evictions": run.kv_evictions,
                "overload_retries": run.overload_retries,
            }
        points.append({"sessions": sessions, "backends": cells})
    # telemetry observes, never perturbs: a metrics-on run replays the
    # plain run of the first point
    first = points[0]
    _, instrumented = serve_once("cam", first["sessions"], metrics=True)
    plain = first["backends"]["cam"]["sim_end"]
    top = points[-1]
    gates = {
        f"cam_ttft_p99_beats_bam_at_{top['sessions']}": (
            top["backends"]["cam"]["ttft_p99_ms"]
            < top["backends"]["bam"]["ttft_p99_ms"]
        ),
        "metrics_sim_end_identical": instrumented == plain,
    }
    measurements = {
        "workload": {
            "num_ssds": NUM_SSDS,
            "capacity_blocks": CAPACITY_BLOCKS,
            "max_concurrent_decodes": MAX_CONCURRENT_DECODES,
            "session_counts": list(SERVING_SESSION_COUNTS),
            **SESSION_KWARGS,
        },
        "points": points,
        "metrics_differential": {
            "sessions": first["sessions"],
            "sim_end_plain": plain,
            "sim_end_instrumented": instrumented,
        },
    }
    return measurements, gates


def cache():
    from repro.experiments.extras import _host_cache_run
    from repro.experiments.gpucache import (
        FEATURE_BYTES,
        GRAPH_KWARGS,
        graph_cache_once,
    )
    from repro.experiments.serving import serve_once
    from repro.serving import SlidingWindowPolicy

    graph = {}
    for mode in ("off", "cache", "cache+ra"):
        summary, sim_end = graph_cache_once(mode)
        graph[mode] = {
            "sim_end": sim_end,
            "bytes_per_s": round(summary["bytes_per_s"], 1),
            "hit_rate": round(summary["hit_rate"], 4),
            "readahead_issued": summary["readahead_issued"],
            "readahead_used": summary["readahead_used"],
            "readahead_accuracy": round(summary["readahead_accuracy"], 4),
        }
    gates = {
        "graph_readahead_ge_off": (
            graph["cache+ra"]["bytes_per_s"] >= graph["off"]["bytes_per_s"]
        ),
    }
    points = []
    for sessions, pin in GOLDEN["serving_cache_off_sim_end"].value.items():
        modes = {}
        for mode, kwargs in (
            ("off", {}),
            ("cache", {"gpu_cache_blocks": CACHE_GPU_BLOCKS,
                       "readahead": False}),
            ("cache+ra", {"gpu_cache_blocks": CACHE_GPU_BLOCKS,
                          "readahead": True}),
        ):
            run, sim_end = serve_once("cam", sessions, **kwargs)
            modes[mode] = {
                "sim_end": sim_end,
                "tokens_per_s": round(run.tokens_per_s, 1),
                "ttft_p99_ms": round(run.ttft_p99 * 1e3, 4),
                "kv_hit_rate": round(run.kv_hit_rate, 4),
            }
        points.append({"sessions": sessions, "modes": modes})
        gates[f"serving_readahead_ge_off.{sessions}"] = (
            modes["cache+ra"]["tokens_per_s"] >= modes["off"]["tokens_per_s"]
        )
        gates[f"off_sim_end_pinned.{sessions}"] = modes["off"]["sim_end"] == pin
    host_cache = {
        inner: _host_cache_run(inner, HOST_CACHE_BYTES, HOST_CACHE_REQUESTS)
        for inner in ("spdk", "cam")
    }
    gates["host_cache_pinned"] = (
        host_cache == GOLDEN["host_cache_pinned"].value
    )
    window = {}
    for sessions in WINDOW_POLICY_SESSIONS:
        run, sim_end = serve_once(
            "cam", sessions, policy=SlidingWindowPolicy(**WINDOW_POLICY)
        )
        window[sessions] = {
            "sim_end": sim_end,
            "kv_evictions": run.kv_evictions,
            "kv_hit_rate": run.kv_hit_rate,
        }
        gates[f"window_policy_pinned.{sessions}"] = (
            window[sessions] == GOLDEN["window_policy_pinned"].value[sessions]
        )
    measurements = {
        "graph_workload": {
            **GRAPH_KWARGS, "feature_bytes": FEATURE_BYTES, "points": graph,
        },
        "serving_workload": {
            "gpu_cache_blocks": CACHE_GPU_BLOCKS, "points": points,
        },
        "host_cache_workload": {
            "requests": HOST_CACHE_REQUESTS,
            "cache_bytes": HOST_CACHE_BYTES,
            "points": host_cache,
        },
        "window_policy_workload": {
            **WINDOW_POLICY,
            "points": {str(n): point for n, point in window.items()},
        },
    }
    return measurements, gates


def disagg():
    from repro.experiments.disagg import WORKLOAD, disagg_goodput
    from repro.experiments.extras import _chaos_disagg

    rates = disagg_goodput(quick=True)
    local = rates["local-only"]["gb_per_s"]
    ratio = rates["tiered"]["gb_per_s"] / local if local else 0.0
    out = _chaos_disagg(requests=160, partition=(0.5e-3, 1.0e-3))
    partition = {
        key: out[key] for key in (
            "offered", "ok", "errors", "degraded_entries", "resyncs",
            "queued_writes", "degraded_misses", "dirty_after", "healed",
            "verify_failures", "readback_failures", "written_pages",
        )
    }
    partition["error_types"] = sorted(out["error_types"])
    gates = {
        "tiered_goodput_above_floor": (
            ratio >= GOLDEN["disagg_goodput_floor"].value
        ),
        "partition_ends_heals_loses_nothing": (
            out["ok"] + out["errors"] == out["offered"]
            and out["degraded_entries"] >= 1
            and out["dirty_after"] == 0
            and out["healed"]
            and out["verify_failures"] == 0
            and out["readback_failures"] == 0
        ),
    }
    measurements = {
        "workload": dict(WORKLOAD),
        "configs": rates,
        "tiered_vs_local": round(ratio, 4),
        "partition": partition,
    }
    return measurements, gates


def cambench():
    # the benchmark's own modules, imported as they are
    sys.path.insert(0, str(REPO / "benchmarks" / "cambench"))
    import bench
    from workloads import WORKLOADS

    golden = GOLDEN["cambench_fingerprint"]
    measurements, gates = {}, {}
    for name, cls in WORKLOADS.items():
        rows = {}
        for seed in CAMBENCH_SEEDS:
            outcome = bench.repetition(cls, seed, {})["outcome"]
            row = None
            if outcome is not None:
                sim = bench.simulated_metrics(outcome)
                row = {
                    "sim_fingerprint": bench.fingerprint(sim),
                    "sim.events": sim["sim.events"],
                    "sim_end_s": sim["sim_end_s"],
                    "violations": outcome.violations,
                }
            rows[str(seed)] = row
            pin = golden[name][seed].value
            gates[f"{name}.{seed}"] = (
                row is not None and not row["violations"]
                and all(row[key] == value for key, value in pin.items())
            )
        measurements[name] = rows
    return {"seeds": list(CAMBENCH_SEEDS), "workloads": measurements}, gates


SWEEPS = {
    "batch": batch,
    "autotune": autotune,
    "serving": serving,
    "cache": cache,
    "disagg": disagg,
    "cambench": cambench,
}


def _commit():
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO,
            capture_output=True, text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", choices=list(SWEEPS), metavar="NAME",
        help=f"run one sweep: {', '.join(SWEEPS)} (default: all)",
    )
    parser.add_argument(
        "--output-dir", required=True, type=Path, metavar="DIR",
        help="write BENCH_<sweep>.json here and nowhere else",
    )
    args = parser.parse_args(argv)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    stamp = {"commit": _commit(), "python": sys.version.split()[0]}
    passed = True
    for name in [args.only] if args.only else SWEEPS:
        measurements, gates = SWEEPS[name]()
        for gate, ok in gates.items():
            print(f"{name}.{gate}: {ok}")
            passed = passed and ok
        record = {
            "sweep": name, **stamp, "gates": gates,
            "measurements": measurements,
        }
        path = args.output_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
