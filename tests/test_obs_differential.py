"""Differential tests: span-derived numbers == the legacy accounting.

These guard the ISSUE 1 rewiring of fig03/fig13 onto the trace analyzer
and the unification of the batch I/O-time definition in CamManager.
"""

import numpy as np
import pytest

from repro.backends import make_backend, measure_throughput
from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.hw.platform import Platform
from repro.obs import TraceAnalyzer, install_tracer
from repro.oskernel.stacks import LAYERS

TOLERANCE = 1e-9


def _fig03_run(stack_name, is_write=False, requests=200):
    """One fixed-seed fig03 cell with tracing enabled."""
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    tracer = install_tracer(platform.env)
    backend = make_backend(stack_name, platform)
    measure_throughput(
        backend,
        granularity=4096,
        is_write=is_write,
        total_requests=requests,
        concurrency=backend.concurrency,
        seed=7,
    )
    return tracer, backend


@pytest.mark.parametrize("stack_name", ["posix", "libaio", "io_uring poll"])
def test_span_layer_sums_match_layer_breakdown(stack_name):
    tracer, backend = _fig03_run(stack_name)
    assert tracer.dropped == 0
    analyzer = TraceAnalyzer(tracer)
    span_layers = analyzer.layer_seconds(layers=LAYERS)
    for layer, expected in backend.stack.breakdown.seconds.items():
        assert abs(span_layers[layer] - expected) < TOLERANCE, layer


def test_span_layer_fractions_match_breakdown_fractions():
    tracer, backend = _fig03_run("io_uring int", is_write=True)
    analyzer = TraceAnalyzer(tracer)
    expected = backend.stack.breakdown.fractions()
    observed = analyzer.layer_fractions(layers=LAYERS)
    for layer in LAYERS:
        assert observed[layer] == pytest.approx(expected[layer], abs=1e-12)
    assert analyzer.kernel_overhead_fraction() == pytest.approx(
        backend.stack.breakdown.kernel_overhead_fraction(), abs=1e-12
    )


def test_fig03_perfetto_export_matches_reported_breakdown(tmp_path):
    """Acceptance: the exported Perfetto JSON of a traced fig03 run
    carries the same per-layer sums the figure reports."""
    import json

    from repro.tools.export import export_perfetto_json

    tracer, backend = _fig03_run("io_uring poll", requests=120)
    path = tmp_path / "fig03.json"
    export_perfetto_json(tracer, path)
    events = json.loads(path.read_text())["traceEvents"]
    layer_us = {}
    for event in events:
        if event["ph"] != "X":
            continue
        layer = event["args"].get("layer")
        if layer is not None:
            layer_us[layer] = layer_us.get(layer, 0.0) + event["dur"]
    for layer, expected in backend.stack.breakdown.seconds.items():
        assert layer_us[layer] * 1e-6 == pytest.approx(
            expected, abs=TOLERANCE
        ), layer


def test_span_cpu_cost_matches_cycle_accountants():
    # the fig13 path: reactor span tags vs the accountants they mirror
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    tracer = install_tracer(platform.env)
    backend = make_backend("spdk", platform)
    measure_throughput(
        backend, 4096, total_requests=150, concurrency=32, seed=7
    )
    instructions, cycles = TraceAnalyzer(tracer).per_request_cpu_cost()
    reactors = backend.driver.pool.reactors
    done = sum(r.accountant.requests for r in reactors)
    expected_i = sum(r.accountant.total_instructions for r in reactors) / done
    expected_c = sum(r.accountant.total_cycles for r in reactors) / done
    assert instructions == pytest.approx(expected_i, rel=1e-12)
    assert cycles == pytest.approx(expected_c, rel=1e-12)


def test_libaio_span_cost_matches_accountant():
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    tracer = install_tracer(platform.env)
    backend = make_backend("libaio", platform)
    measure_throughput(
        backend, 4096, total_requests=100,
        concurrency=backend.concurrency, seed=7,
    )
    instructions, cycles = TraceAnalyzer(tracer).per_request_cpu_cost()
    accountant = backend.stack.accountant
    assert instructions == pytest.approx(
        accountant.instructions_per_request(), rel=1e-12
    )
    assert cycles == pytest.approx(
        accountant.cycles_per_request(), rel=1e-12
    )


def _cam_batches(num_batches=3, requests=16):
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    tracer = install_tracer(platform.env)
    manager = CamManager(platform)
    rng = np.random.default_rng(7)
    for _ in range(num_batches):
        lbas = rng.integers(0, 1 << 12, size=requests).astype(np.int64) * 8
        batch = BatchRequest(lbas=lbas, granularity=4096, is_write=False)
        platform.env.run(manager.ring(batch))
    return platform, tracer, manager


def test_batch_span_durations_match_latencystat_totals():
    _, tracer, manager = _cam_batches()
    analyzer = TraceAnalyzer(tracer)
    spans = analyzer.batch_spans()
    assert len(spans) == manager.batch_io_time.count == 3
    assert abs(
        analyzer.batch_latency_total() - manager.batch_io_time.total()
    ) < TOLERANCE


def test_batch_io_time_definition_is_unified():
    """ISSUE 1 bugfix: ``done`` value, ``last_io_time`` and the batch
    span must all measure doorbell ring -> completion (poll delay
    included), not the post-poll handling time."""
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    tracer = install_tracer(platform.env)
    manager = CamManager(platform)
    lbas = np.arange(8, dtype=np.int64) * 8
    batch = BatchRequest(lbas=lbas, granularity=4096, is_write=False)
    done = manager.ring(batch)
    value = platform.env.run(done)
    # all three views agree exactly
    assert value == manager.last_io_time
    assert value == manager.batch_io_time.total()
    span = TraceAnalyzer(tracer).batch_spans()[0]
    assert abs(span.duration - value) < TOLERANCE
    # and the definition includes the doorbell poll delay — the old
    # `done` value started after it
    config = manager.config
    min_overhead = config.poll_interval / 2 + config.batch_setup_time
    assert value > min_overhead
    assert value == platform.env.now - batch.submit_time


def _serving_sim_end(scenario, traced, causal=True):
    from repro.tools.trace_cli import run_demo

    platform, _, result = run_demo(
        scenario, traced=traced, num_sessions=20, causal=causal
    )
    return platform.env.now, result.turns_done


@pytest.mark.parametrize("scenario", ["base", "fabric-brownout"])
def test_causal_tracing_is_bit_identical_in_simulated_time(scenario):
    """ISSUE 10 zero-cost contract: a serving run (CAM array, and the
    disaggregated tier under a fabric brownout) replays the identical
    event history whether causal tracing is enabled, reduced to bare
    span recording, or fully disabled, and ends at its pinned instant."""
    from tests.golden import GOLDEN

    bare = _serving_sim_end(scenario, traced=False)
    spans_only = _serving_sim_end(scenario, traced=True, causal=False)
    causal = _serving_sim_end(scenario, traced=True)
    assert bare == spans_only == causal
    assert bare[0] == GOLDEN["causal_serving_sim_end"].value[scenario]


def test_reactor_utilization_and_timeline_are_consistent():
    platform, tracer, _ = _cam_batches(num_batches=2, requests=32)
    analyzer = TraceAnalyzer(tracer)
    busy = analyzer.reactor_busy_seconds()
    assert busy and all(seconds > 0 for seconds in busy.values())
    utilization = analyzer.reactor_utilization()
    assert all(0 < u <= 1.0 for u in utilization.values())
    t0, t1 = analyzer.window()
    timeline = analyzer.reactor_timeline((t1 - t0) / 8)
    for reactor, points in timeline.items():
        total = sum(frac for _, frac in points) * ((t1 - t0) / 8)
        assert total == pytest.approx(busy[reactor], rel=1e-6)
