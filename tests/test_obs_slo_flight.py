"""SLO monitoring and the flight recorder.

The ISSUE 5 acceptance scenario lives here: a seeded latency
regression (FaultInjector.degrade on one device) must trip a p99
objective that the healthy run holds, the violation must surface as an
``slo_violation`` trace instant, and an attached FlightRecorder must
drop a debug bundle for it.  The chaos integration (metrics snapshot +
bundle closure per scenario) is exercised at the bottom.
"""

import json

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.errors import ConfigurationError
from repro.hw.faults import FaultInjector
from repro.hw.platform import Platform
from repro.obs import (
    FlightRecorder,
    SloMonitor,
    SloObjective,
    install_metrics,
    install_sampler,
    install_tracer,
)
from repro.obs.export import load_trace_csv
from repro.reliability import Reliability

P99_READ = {
    "name": "read-batch-p99",
    "metric": "cam_batch_latency_seconds",
    "labels": {"op": "read"},
    "stat": "p99",
    "op": "<",
    "threshold": 500e-6,
}


# -- objective spec --------------------------------------------------------

def test_objective_from_dict_validates():
    objective = SloObjective.from_dict(P99_READ)
    assert objective.series_key() == (
        "cam_batch_latency_seconds{op=read}"
    )
    assert SloObjective.from_dict(
        {"name": "g", "metric": "m", "stat": "last", "op": ">=",
         "threshold": 1}
    ).series_key() == "m"
    with pytest.raises(ConfigurationError, match="unknown keys"):
        SloObjective.from_dict(dict(P99_READ, typo=1))
    with pytest.raises(ConfigurationError, match="unknown stat"):
        SloObjective.from_dict(dict(P99_READ, stat="p42"))
    with pytest.raises(ConfigurationError, match="unknown op"):
        SloObjective.from_dict(dict(P99_READ, op="~"))


# -- the seeded-regression acceptance scenario -----------------------------

def _slo_run(degrade: bool, tmp_path=None, cooldown=0.0):
    injector = FaultInjector(seed=5)
    if degrade:
        # one slow device drags every striped batch: the seeded latency
        # regression the monitor must flag
        injector.degrade(0, factor=32.0)
    platform = Platform(
        PlatformConfig(num_ssds=4), functional=False,
        fault_injector=injector,
    )
    env = platform.env
    reliability = Reliability(platform)
    manager = CamManager(platform, num_cores=2, reliability=reliability)
    tracer = install_tracer(env)
    metrics = install_metrics(env)
    sampler = install_sampler(metrics, manager=manager, interval=50e-6)
    monitor = SloMonitor(
        metrics, sampler=sampler,
        objectives=[SloObjective.from_dict(P99_READ)],
        tracer=tracer, cooldown=cooldown,
    )
    recorder = None
    if tmp_path is not None:
        recorder = FlightRecorder(
            env, tmp_path, tracer=tracer, sampler=sampler,
            metrics=metrics, health=reliability.health,
        ).attach(monitor)
    for index in range(4):
        lbas = (np.arange(64, dtype=np.int64) * 7 + index) % (1 << 18)
        env.run(manager.ring(BatchRequest(
            lbas=lbas, granularity=4096, is_write=False
        )))
    sampler.stop()
    sampler.sample_now()
    monitor.evaluate()
    return monitor, tracer, recorder


def test_healthy_run_holds_the_p99_objective():
    monitor, _, _ = _slo_run(degrade=False)
    assert monitor.ok()
    assert monitor.violations == []


def test_seeded_latency_regression_trips_the_monitor():
    monitor, tracer, _ = _slo_run(degrade=True, cooldown=1.0)
    assert not monitor.ok()
    violation = monitor.violations[0]
    assert violation.objective == "read-batch-p99"
    assert violation.observed > violation.threshold
    assert "read-batch-p99" in violation.describe()
    # cooldown: one violation despite many samples
    assert len(monitor.violations) == 1
    # the violation is on the trace timeline too
    names = [span.name for span in tracer.spans()]
    assert "slo_violation" in names


def test_violation_dumps_a_flight_bundle(tmp_path):
    monitor, _, recorder = _slo_run(
        degrade=True, tmp_path=tmp_path, cooldown=1.0
    )
    assert not monitor.ok()
    assert len(recorder.bundles) == 1
    bundle = recorder.bundles[0]
    assert bundle.name.startswith("bundle-000-slo")

    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["reason"] == "slo:read-batch-p99"
    assert "read-batch-p99" in manifest["detail"]
    assert manifest["sim_time"] > 0

    metrics_payload = json.loads((bundle / "metrics.json").read_text())
    assert metrics_payload["history"]  # sampler tail rode along
    spans = load_trace_csv(bundle / "spans.csv")
    assert spans  # last-N spans re-import through the CSV loader
    health = json.loads((bundle / "health.json").read_text())
    assert set(health["health"]) == {"0", "1", "2", "3"} or set(
        health["health"]
    ) == {0, 1, 2, 3}


def test_flight_recorder_caps_bundles(tmp_path):
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    metrics = install_metrics(platform.env)
    recorder = FlightRecorder(
        platform.env, tmp_path, metrics=metrics, max_bundles=2
    )
    assert recorder.dump("one") is not None
    assert recorder.dump("two") is not None
    assert recorder.dump("three") is None  # suppressed
    assert recorder.suppressed == 1
    assert len(recorder.bundles) == 2
    with pytest.raises(ConfigurationError):
        FlightRecorder(platform.env, tmp_path, max_bundles=0)


# -- chaos integration -----------------------------------------------------

def test_chaos_scenario_carries_metrics_and_dump_closure(tmp_path):
    from repro.experiments.extras import _chaos_batches

    out = _chaos_batches(
        workers=2, batches=1, per_batch=16,
        flight_dir=tmp_path, scenario="unit",
    )
    # the invariant counters are still there, telemetry rides along
    assert out["terminated"] == out["submitted"]
    assert out["metrics"]["spdk_requests_total"] == out["submitted"]
    assert "reactor_busy_fraction{reactor=0}" in out["metrics"]

    bundle = out["_dump"]("chaos:unit", detail="forced for the test")
    assert bundle is not None and bundle.is_dir()
    assert (bundle / "metrics.json").exists()
    assert (bundle / "health.json").exists()
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["reason"] == "chaos:unit"


def test_chaos_dump_is_noop_without_flight_dir():
    from repro.experiments.extras import _chaos_batches

    out = _chaos_batches(workers=2, batches=1, per_batch=16)
    assert out["_dump"]("chaos:unit") is None
