"""Self-test of cambench: every workload at a tiny size.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/cambench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

bench.import_checkout_source()

from layertrace import LayerProfiler  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = bench.load_spec()

TINY = {
    "batch_read": dict(batches=2, requests=256),
    "batch_rw_reliable": dict(submitters=2, rounds=2, requests=128),
    "serving_kv": dict(sessions=40),
    "graph_cache": dict(
        num_nodes=2048, batches=4, batch_size=32, cache_lines=256
    ),
    "disagg_tiered": dict(warm=300, requests=600, clients=8),
}


@pytest.fixture(scope="module")
def traced_runs():
    """One untraced plus one traced repetition of every workload."""
    return {
        name: bench.measure(name, 17, 0.0, True, TINY[name])
        for name in WORKLOADS
    }


def test_workloads_match_the_spec():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_outputs_pass_every_check(traced_runs, name):
    result = traced_runs[name]
    assert result["correct"], result["violations"]
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(
    traced_runs, capsys, name, trace
):
    final = bench.report(traced_runs[name], SPEC, trace)
    lines = capsys.readouterr().out.splitlines()
    printed = {}
    for line in lines:
        if line.startswith(f"{name} "):
            _, metric, value, unit = line.split(" ")
            printed[metric] = unit
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert printed[entry["name"]] == entry["unit"], entry["name"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert list(final["metrics"]) == [entry["name"] for entry in declared]
    for entry in SPEC["end_to_end"]:
        if not trace:
            assert final["metrics"][entry["name"]]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reproduces_the_untraced_fingerprint(name):
    cls = WORKLOADS[name]
    plain = bench.repetition(cls, 5, TINY[name])
    with LayerProfiler() as profiler:
        traced = bench.repetition(cls, 5, TINY[name], profiler)
    assert bench.fingerprint(
        bench.simulated_metrics(plain["outcome"])
    ) == bench.fingerprint(bench.simulated_metrics(traced["outcome"]))
    assert profiler.missing == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_layer_self_times_sum_to_the_traced_wall_time(traced_runs, name):
    host = traced_runs[name]["host"]
    total = sum(
        value for metric, value in host.items()
        if metric.endswith(".self_s")
    )
    assert total == pytest.approx(host["trace.wall_s"], rel=0.05)
    assert all(
        value >= 0 for metric, value in host.items()
        if metric.endswith(".self_s")
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_two_seeds_give_different_inputs_and_both_pass(traced_runs, name):
    other = bench.measure(name, 18, 0.0, False, TINY[name])
    assert other["correct"], other["violations"]
    assert other["sim_fingerprint"] != traced_runs[name]["sim_fingerprint"]


def test_profiler_restores_every_patch():
    from repro.sim.core import Environment, Process

    before = (Process.__init__, Environment.run)
    with LayerProfiler():
        assert (Process.__init__, Environment.run) != before
    assert (Process.__init__, Environment.run) == before


def test_a_failed_check_fails_the_run():
    outcome = Outcome(
        failed=10, sim_s=1.0, demand_bytes=1, events=1, layers={},
        violations=["dirty log drained (3 pages left)"],
    )
    rep = {"setup_s": 0.1, "wall_s": 0.2, "outcome": outcome,
           "attempted": 10}
    result = bench.summarise("batch_read", [rep], [], [], [0.1], 50.0)
    assert not result["correct"]
    assert result["failed"] == 10


def test_an_untyped_error_fails_the_run():
    class Broken(WORKLOADS["batch_read"]):
        def run(self):
            raise KeyError("not a repro error")

    rep = bench.repetition(Broken, 1, TINY["batch_read"])
    result = bench.summarise("batch_read", [rep], [], [], [0.1], 50.0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([10.0] * 5 + [10.2] * 5, [8.0] * 10, "improved"),
        ([10.0] * 5 + [10.2] * 5, [13.0] * 10, "regressed"),
        ([10.0] * 5 + [10.2] * 5, [10.1] * 10, "unchanged"),
        ([8.0, 12.0] * 5, [9.0, 11.5] * 5, "unresolved"),
    ],
)
def test_verdict(parent, change, expected):
    assert bench.verdict(parent, change, "lower", 0.1)[0] == expected


@pytest.mark.parametrize(
    "change, expected",
    [
        ([1.0] * 10, "unchanged"),
        ([1.0] * 9 + [0.9], "improved"),
        # one worse seed regresses, though the median improved
        ([0.5] * 9 + [1.01], "regressed"),
    ],
)
def test_exact_verdict_judges_seed_by_seed(change, expected):
    assert bench.exact_verdict([1.0] * 10, change, "lower")[0] == expected


def _records(path, walls, fingerprint="aa", seeds=None, **overrides):
    seeds = range(len(walls)) if seeds is None else seeds
    with open(path, "w") as handle:
        for seed, wall in zip(seeds, walls):
            run = {
                "workload": "batch_read", "seed": seed, "trace": False,
                "correct": True, "attempted": 1000, "failed": 0,
                "sim": {"sim_end_s": 0.03, "sim_gbps": 17.0,
                        "sim_p99_ms": 2.0},
                "host": {"wall_s": wall, "setup_s": 0.01,
                         "peak_rss_mb": 50.0},
                "sim_fingerprint": fingerprint,
            }
            for key, value in overrides.items():
                if key in run["sim"]:
                    run["sim"][key] = value(seed)
                else:
                    run[key] = value(seed)
            handle.write(json.dumps(run) + "\n")


@pytest.fixture
def record_paths(tmp_path):
    return str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl")


def test_compare_reads_paired_records(record_paths, capsys):
    parent, change = record_paths
    _records(parent, [3.0 + 0.01 * i for i in range(10)])
    _records(change, [2.0 + 0.01 * i for i in range(10)])
    assert bench.compare(parent, change, SPEC) == 0
    out = capsys.readouterr().out
    assert "batch_read wall_s" in out and "-> improved" in out
    assert "sim_fingerprint identical on 10/10 seeds" in out
    _records(change, [2.0] * 9)
    assert bench.compare(parent, change, SPEC) == bench.TOO_FEW_PAIRS


def test_compare_pairs_runs_by_seed(record_paths, capsys):
    parent, change = record_paths
    _records(parent, [3.0 + 0.1 * s for s in range(10)],
             sim_p99_ms=lambda s: 2.0 + s)
    # the change's file lists the seeds backwards, and runs seed 9 twice
    seeds = [9] + list(range(9, -1, -1))
    _records(change, [3.0 + 0.1 * s for s in seeds], seeds=seeds,
             sim_p99_ms=lambda s: 2.0 + s)
    assert bench.compare(parent, change, SPEC) == 0
    out = capsys.readouterr().out
    assert "(10 pairs by seed)" in out
    assert "sim_p99_ms" in out and "-> unchanged (exact" in out


def test_compare_regresses_a_simulated_metric_worse_on_one_seed(
    record_paths, capsys
):
    parent, change = record_paths
    _records(parent, [3.0] * 10)
    _records(change, [3.0] * 10, "bb",
             sim_gbps=lambda s: 16.9 if s == 4 else 30.0)
    assert bench.compare(parent, change, SPEC) == bench.REGRESSED
    assert "sim_gbps" in capsys.readouterr().out


def test_compare_flags_a_changed_simulation(record_paths, capsys):
    parent, change = record_paths
    _records(parent, [3.0] * 10)
    _records(change, [3.0] * 10, "bb", sim_p99_ms=lambda s: 1.5)
    assert bench.compare(parent, change, SPEC) == bench.SIMULATION_CHANGED
    out = capsys.readouterr().out
    assert "identical on 0/10 seeds" in out and "sim_p99_ms" in out


@pytest.mark.parametrize(
    "overrides",
    [
        {"correct": lambda s: s != 3},
        {"failed": lambda s: 1 if s == 0 else 0},
    ],
)
def test_compare_regresses_a_change_that_fails_more(
    record_paths, capsys, overrides
):
    parent, change = record_paths
    _records(parent, [3.0 + 0.01 * i for i in range(10)])
    # faster, but incorrect or failing: the gain does not count
    _records(change, [2.0 + 0.01 * i for i in range(10)], **overrides)
    assert bench.compare(parent, change, SPEC) == bench.REGRESSED
    assert "-> regressed" in capsys.readouterr().out


def test_a_checkout_without_source_exits_nonzero(tmp_path):
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "cambench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    child = subprocess.run(
        [sys.executable, "benchmarks/cambench/bench.py", "--workload",
         "batch_read", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
