#!/usr/bin/env python3
"""cambench: end-to-end and per-layer benchmark of the CAM simulator.

Run from the repository root (no install needed; the benchmark imports
``repro`` from ``src/`` of the checkout it lives in)::

    python3 benchmarks/cambench/bench.py                  # all workloads
    python3 benchmarks/cambench/bench.py --workload serving_kv --seed 17
    python3 benchmarks/cambench/bench.py --traced         # per-layer run
    python3 benchmarks/cambench/bench.py compare PARENT.jsonl CHANGE.jsonl

One run of one workload repeats the workload's fixed unit of work,
each repetition set up afresh from the seed, for ``--seconds`` seconds
(at least once).  It reports the fastest repetition's wall time and
the median set-up time.  Every metric is printed as
``<workload> <metric> <value> <unit>``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (or its per-layer metrics
with ``--trace 1``).  Without ``--workload`` each workload runs in a
fresh subprocess.  A failed output check prints ``correct: false`` and
exits 1.  README.md describes the workloads, metrics and protocol.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
#: the canonical seed; ``serving_kv`` at this seed is the 10^4-session
#: CAM point of ``BENCH_serving.json``
DEFAULT_SEED = 17
#: set-up is timed at least this many times per run (extra set-ups are
#: built and dropped when fewer repetitions fit the time budget)
MIN_SETUPS = 5


def import_checkout_source() -> None:
    """Put this checkout's ``src`` first on ``sys.path`` and import
    ``repro`` from it; exit non-zero when the checkout has no source."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"cambench: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if src.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"cambench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def fingerprint(sim: dict) -> str:
    """A hash of every simulated metric, exact to the last bit."""
    text = json.dumps({k: float(v).hex() for k, v in sorted(sim.items())})
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- one repetition -------------------------------------------------------

def repetition(cls, seed: int, sizes: dict, profiler=None) -> dict:
    """Set up, run and read one fixed unit of work."""
    gc.collect()
    start = time.perf_counter()
    workload = cls(seed, **sizes)
    setup_s = time.perf_counter() - start
    if profiler is not None:
        profiler.reset()
    start = time.perf_counter()
    try:
        workload.run()
    except Exception as error:  # noqa: BLE001 - the typed-errors check
        # an untyped error (or an engine failure) escaped the workload:
        # report it and count every operation of the unit as failed
        traceback.print_exc()
        wall_s = time.perf_counter() - start
        return {"setup_s": setup_s, "wall_s": wall_s, "outcome": None,
                "attempted": workload.attempted,
                "escaped": f"{type(error).__name__}: {error}"}
    wall_s = time.perf_counter() - start
    return {"setup_s": setup_s, "wall_s": wall_s,
            "outcome": workload.outcome(), "attempted": workload.attempted}


def simulated_metrics(outcome) -> dict:
    sim = {
        "sim_end_s": outcome.sim_s,
        "sim_gbps": outcome.demand_bytes / outcome.sim_s / 1e9,
        "sim_p99_ms": outcome.p99_s * 1e3,
        "sim_p99_samples": outcome.latency_samples,
        "sim.events": outcome.events,
    }
    sim.update(outcome.layers)
    return sim


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes=None) -> dict:
    """Repeat workload ``name`` for ``seconds`` and summarise it.

    Untraced repetitions give every end-to-end metric.  With ``trace``
    traced repetitions alternate with untraced ones (at least one of
    each) and give the per-layer host split.
    """
    from layertrace import LayerProfiler
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    sizes = sizes or {}
    deadline = time.perf_counter() + seconds
    plain, traced, profiles = [], [], []
    rss_mb = None
    while True:
        started = time.perf_counter()
        if trace and len(traced) < len(plain):
            with LayerProfiler() as profiler:
                traced.append(repetition(cls, seed, sizes, profiler))
            profiles.append(profiler)
        else:
            plain.append(repetition(cls, seed, sizes))
        if rss_mb is None:
            # the peak of a fresh process running the unit once; later
            # repetitions only add allocator noise
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        last = time.perf_counter() - started
        needed = trace and not traced
        if not needed and time.perf_counter() + last > deadline:
            break
    setups = [rep["setup_s"] for rep in plain]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        start = time.perf_counter()
        cls(seed, **sizes)
        setups.append(time.perf_counter() - start)
    return summarise(name, plain, traced, profiles, setups, rss_mb)


def summarise(name, plain, traced, profiles, setups, rss_mb) -> dict:
    reps = plain + traced
    violations = []
    attempted = sum(rep["attempted"] for rep in reps)
    failed = 0
    prints = set()
    error_types = collections.Counter()
    for rep in reps:
        outcome = rep["outcome"]
        if outcome is None:
            violations.append(f"untyped error escaped: {rep['escaped']}")
            failed += rep["attempted"]
            continue
        violations.extend(outcome.violations)
        failed += outcome.failed
        error_types.update(outcome.error_types)
        prints.add(fingerprint(simulated_metrics(outcome)))
    if len(prints) > 1:
        # repetitions replay one seed, traced or not: any difference is
        # nondeterminism or a tracer that perturbs the simulation
        violations.append(
            f"simulated metrics differ between repetitions: {sorted(prints)}"
        )
    first = next((r["outcome"] for r in reps if r["outcome"]), None)
    sim = simulated_metrics(first) if first is not None else {}
    # every repetition replays the same simulated work, so the spread
    # between them is host interference: the fastest is the cleanest
    wall = min(rep["wall_s"] for rep in plain)
    host = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        "reps": len(plain),
    }
    if sim:
        host["sim.host_us_per_event"] = wall / sim["sim.events"] * 1e6
    if traced:
        traced_wall = min(rep["wall_s"] for rep in traced)
        host["trace.wall_s"] = traced_wall
        host["trace.overhead_x"] = traced_wall / wall
        host["trace.reps"] = len(traced)
        split = [
            (profiler.layers(), rep["wall_s"])
            for profiler, rep in zip(profiles, traced)
        ]
        for layer in split[0][0]:
            host[f"{layer}.self_s"] = statistics.median(
                layers[layer]["self_s"] for layers, _ in split
            )
            host[f"{layer}.self_pct"] = statistics.median(
                100 * layers[layer]["self_s"] / w for layers, w in split
            )
            host[f"{layer}.calls"] = split[0][0][layer]["calls"]
        host["trace.attributed_pct"] = statistics.median(
            100 * sum(row["self_s"] for row in layers.values()) / w
            for layers, w in split
        )
    return {
        "workload": name,
        "correct": not violations,
        "violations": violations,
        "attempted": attempted,
        "failed": failed,
        "error_types": dict(error_types),
        "sim": sim,
        "host": host,
        "sim_fingerprint": prints.pop() if len(prints) == 1 else None,
        "top": profiles[0].top() if profiles else [],
        "missing_entry_points": profiles[0].missing if profiles else [],
    }


# -- reporting ------------------------------------------------------------

#: units, by name suffix, of metrics printed but not declared in
#: BENCHMARK.json
EXTRA_UNITS = {
    "reps": "count", "self_s": "s", "self_pct": "%", "calls": "count",
    "attributed_pct": "%", "sim_p99_samples": "count",
}


def unit_of(metric: str, spec: dict) -> str:
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] == metric:
            return entry["unit"]
    return EXTRA_UNITS[metric.split(".")[-1]]


def report(result: dict, spec: dict, trace: bool) -> dict:
    """Print every metric line and return the final JSON object."""
    name = result["workload"]
    values = {**result["sim"], **result["host"]}
    for metric in sorted(values):
        print(f"{name} {metric} {values[metric]!r} {unit_of(metric, spec)}")
    print(f"{name} sim_fingerprint {result['sim_fingerprint']} -")
    for layer, entry, calls, incl, self_s in result["top"]:
        print(f"# {name} trace {layer} {entry} calls={calls} "
              f"incl_s={incl:.4f} self_s={self_s:.4f}")
    for entry in result["missing_entry_points"]:
        print(f"# {name} trace entry point not found: {entry}")
    for error, count in sorted(result["error_types"].items()):
        print(f"# {name} typed failure {error} x{count}")
    for violation in result["violations"]:
        print(f"# {name} CHECK FAILED: {violation}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {
                "value": values[entry["name"]], "unit": entry["unit"],
            }
            for entry in declared
            if entry["name"] in values
        },
    }


def record(path: str, result: dict, seed: int, trace: bool) -> None:
    """Append one run to a JSON-lines file for ``compare``."""
    line = {
        "workload": result["workload"], "seed": seed, "trace": trace,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "sim": result["sim"],
        "host": result["host"], "sim_fingerprint": result["sim_fingerprint"],
    }
    with open(path, "a") as handle:
        handle.write(json.dumps(line) + "\n")


# -- compare --------------------------------------------------------------

def verdict(parent, change, better: str, bound: float):
    """improved / unchanged / regressed / unresolved for paired runs.

    Improved needs the change to win at least 9 in 10 pairs and the
    medians to differ by more than the parent's quartile spread;
    regressed is a median worse by more than ``bound``; a parent
    spread wider than ``bound`` is unresolved unless every change run
    beats every parent run.
    """
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / len(parent)
    delta = sign * (c_med - p_med) / p_med if p_med else 0.0
    if share >= 0.9 and abs(c_med - p_med) > q3 - q1 and delta > 0:
        return "improved", share
    if delta < -bound:
        return "regressed", share
    if (q3 - q1) / p_med > bound and not (
        min(sign * c for c in change) > max(sign * p for p in parent)
    ):
        return "unresolved", share
    return "unchanged", share


def exact_verdict(parent, change, better: str):
    """improved / unchanged / regressed for a simulated metric, seed by
    seed: a simulated result is exact for its seed, so a change that
    reads worse on any seed regressed, whatever the medians say."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    share = wins / len(parent)
    if losses:
        return "regressed", share
    return ("improved" if wins else "unchanged"), share


#: ``compare`` exit statuses
REGRESSED, TOO_FEW_PAIRS, SIMULATION_CHANGED = 1, 2, 3


def load_runs(path: str) -> dict:
    """The untraced runs of a ``--record`` file as
    ``{workload: {seed: run}}``; a seed recorded twice keeps its first
    run."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                run = json.loads(line)
                if not run["trace"]:
                    runs.setdefault(run["workload"], {}).setdefault(
                        run["seed"], run
                    )
    return runs


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """Pair the runs of two ``--record`` files by seed and judge them.

    Returns 0 when nothing regressed and every simulated result is
    identical; :data:`REGRESSED` when a metric regressed or the change
    failed more often or ran incorrectly; :data:`TOO_FEW_PAIRS` when a
    workload has fewer than 10 common seeds; :data:`SIMULATION_CHANGED`
    when nothing regressed but a ``sim_fingerprint`` differs, which a
    change must explain.
    """
    parent, change = load_runs(parent_path), load_runs(change_path)
    regressed = too_few = sim_changed = False
    for name in sorted(set(parent) | set(change)):
        p_seed, c_seed = parent.get(name, {}), change.get(name, {})
        seeds = sorted(set(p_seed) & set(c_seed))
        if len(seeds) < 10:
            print(f"{name}: {len(seeds)} seeds run on both sides; the pair "
                  "protocol needs at least 10")
            too_few = True
            continue
        p_runs = [p_seed[seed] for seed in seeds]
        c_runs = [c_seed[seed] for seed in seeds]
        print(f"== {name} ({len(seeds)} pairs by seed)")
        # a gain does not count when more operations fail than at the
        # parent, or when any run of the change failed its checks
        sides = []
        for runs in (p_runs, c_runs):
            sides.append((
                sum(run["failed"] for run in runs),
                sum(run["attempted"] for run in runs),
                sum(not run["correct"] for run in runs),
            ))
        (p_failed, p_attempted, p_bad), (c_failed, c_attempted, c_bad) = sides
        worse = c_bad > 0 or c_failed * p_attempted > p_failed * c_attempted
        regressed |= worse
        print(f"{name} failed parent {p_failed}/{p_attempted} "
              f"({p_bad} incorrect runs) change {c_failed}/{c_attempted} "
              f"({c_bad} incorrect runs) -> "
              f"{'regressed' if worse else 'unchanged'}")
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            exact = metric in p_runs[0]["sim"]
            kind = "sim" if exact else "host"
            pv = [run[kind][metric] for run in p_runs]
            cv = [run[kind][metric] for run in c_runs]
            if exact:
                result, share = exact_verdict(pv, cv, entry["better"])
            else:
                result, share = verdict(
                    pv, cv, entry["better"], entry["bound"]
                )
            regressed |= result == "regressed"
            pq = statistics.quantiles(pv, n=4)
            cq = statistics.quantiles(cv, n=4)
            print(f"{name} {metric} parent {pq[1]:.6g} [{pq[0]:.6g}, "
                  f"{pq[2]:.6g}] change {cq[1]:.6g} [{cq[0]:.6g}, "
                  f"{cq[2]:.6g}] {entry['unit']} won {share:.0%} -> "
                  f"{result}{' (exact, per seed)' if exact else ''}")
        moved = sorted({
            metric
            for p, c in zip(p_runs, c_runs)
            for metric in p["sim"]
            if p["sim"][metric] != c["sim"].get(metric)
        })
        same = sum(
            p["sim_fingerprint"] == c["sim_fingerprint"]
            for p, c in zip(p_runs, c_runs)
        )
        sim_changed |= same < len(seeds)
        print(f"{name} sim_fingerprint identical on {same}/{len(seeds)} "
              f"seeds; simulated metrics that moved: "
              f"{', '.join(moved) if moved else 'none'}")
    if regressed:
        return REGRESSED
    if too_few:
        return TOO_FEW_PAIRS
    return SIMULATION_CHANGED if sim_changed else 0


# -- entry point ----------------------------------------------------------

def run_all(args, spec: dict) -> int:
    """Each workload in a fresh single-threaded subprocess, in order."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.record:
            command += ["--record", args.record]
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name} produced no result (exit {child.returncode})")
            correct = False
            continue
        correct = correct and last["correct"] and child.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        metrics[name] = last["metrics"]
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: bench.py compare PARENT.jsonl CHANGE.jsonl")
        return compare(argv[1], argv[2], spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long one workload run repeats its unit of work",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--record", metavar="FILE",
                        help="append each run to FILE for compare")
    args = parser.parse_args(argv)
    import_checkout_source()
    if args.workload is None:
        return run_all(args, spec)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    print(f"# cambench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}", flush=True)
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    final = report(result, spec, bool(args.trace))
    if args.record:
        record(args.record, result, args.seed, bool(args.trace))
    print(json.dumps(final), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
