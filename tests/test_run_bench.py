"""The simulated-gate harness: where it writes, its exit code, its names.

A stub sweep stands in for the six real ones, which take about two
and a half minutes together and run in the CI ``gates`` job.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", REPO / "benchmarks" / "perf" / "run_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub(monkeypatch, run_bench, **gates):
    monkeypatch.setitem(
        run_bench.SWEEPS, "stub", lambda: ({"sim_end": 0.5}, gates)
    )


def test_writes_only_into_the_output_dir(run_bench, monkeypatch, tmp_path):
    tracked = {path: path.read_bytes() for path in REPO.glob("BENCH_*.json")}
    monkeypatch.chdir(tmp_path)
    _stub(monkeypatch, run_bench, holds=True)

    assert run_bench.main(["--only", "stub", "--output-dir", "tmp"]) == 0

    assert [p.name for p in tmp_path.iterdir()] == ["tmp"]
    assert [p.name for p in (tmp_path / "tmp").iterdir()] == [
        "BENCH_stub.json"
    ]
    assert {
        path: path.read_bytes() for path in REPO.glob("BENCH_*.json")
    } == tracked
    record = json.loads((tmp_path / "tmp" / "BENCH_stub.json").read_text())
    assert list(record) == [
        "sweep", "commit", "python", "gates", "measurements"
    ]
    assert record["sweep"] == "stub"
    assert record["gates"] == {"holds": True}
    assert record["measurements"] == {"sim_end": 0.5}


def test_a_false_gate_exits_one(run_bench, monkeypatch, tmp_path, capsys):
    _stub(monkeypatch, run_bench, holds=True, pinned=False)
    assert run_bench.main(
        ["--only", "stub", "--output-dir", str(tmp_path)]
    ) == 1
    assert capsys.readouterr().out.splitlines() == [
        "stub.holds: True", "stub.pinned: False"
    ]

    _stub(monkeypatch, run_bench, holds=True, pinned=True)
    assert run_bench.main(
        ["--only", "stub", "--output-dir", str(tmp_path)]
    ) == 0


@pytest.mark.parametrize("argv", [
    ["--only", "nope", "--output-dir", "out"],
    ["--only", "batch"],
])
def test_unknown_sweep_or_missing_output_dir_is_rejected(
    run_bench, monkeypatch, tmp_path, argv
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        run_bench.main(argv)
    assert exit_info.value.code == 2
    assert list(tmp_path.iterdir()) == []
