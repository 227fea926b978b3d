"""Causal request tracing & critical-path attribution (ISSUE 10).

Covers the tentpole acceptance criteria end to end:

* stage attribution partitions the request wall exactly (coverage >= 95%
  on a full serving run, with the residue reported as ``untracked``);
* the seeded fault scenarios are correctly fingered — an SSD media
  degrade makes ``media`` the dominant tail stage, a fabric brownout
  makes ``fabric`` dominant;
* histogram exemplars carry trace ids that resolve back into a
  waterfall crossing at least one flow link;
* orphan spans (parent evicted out of the ring, children surviving)
  are detected, not silently re-rooted;
* the trace CSV round-trips arbitrary tag content (commas, quotes,
  newlines, numpy scalars) without corruption.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.hw.platform import Platform
from repro.obs import (
    CriticalPathAnalyzer,
    TraceAnalyzer,
    install_metrics,
    install_tracer,
    mint_context,
)
from repro.obs.causal import UNTRACKED, link_of, stage_of
from repro.obs.export import export_trace_csv, load_trace_csv
from repro.obs.tracer import Span, Tracer
from repro.tools.trace_cli import run_demo

EXACT = 1e-12


class _Clock:
    def __init__(self):
        self.now = 0.0


# -- context lifecycle -------------------------------------------------

def test_mint_context_returns_none_when_tracing_is_off():
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    assert mint_context(platform.env.tracer, "anything") is None


def test_mint_context_returns_none_when_causal_is_off():
    clock = _Clock()
    tracer = Tracer(clock, causal=False)
    assert mint_context(tracer, "batch") is None
    assert tracer.contexts_started == 0


def test_context_lifecycle_counters_and_idempotent_finish():
    clock = _Clock()
    tracer = Tracer(clock)
    ctx = mint_context(tracer, "unit", origin="test")
    assert (tracer.contexts_started, tracer.contexts_active,
            tracer.contexts_completed) == (1, 1, 0)
    clock.now = 2.0
    ctx.finish(outcome="done")
    ctx.finish()  # error-path double-finish must be a no-op
    assert (tracer.contexts_started, tracer.contexts_active,
            tracer.contexts_completed) == (1, 0, 1)
    root = list(tracer.spans())[-1]
    assert root.name == "request"
    assert root.tags["kind"] == "unit"
    assert root.tags["outcome"] == "done"
    assert root.duration == 2.0


def test_child_spans_inherit_trace_id_and_root_parent():
    clock = _Clock()
    tracer = Tracer(clock)
    ctx = mint_context(tracer, "unit")
    span = ctx.begin("nvme_io", lba=7)
    clock.now = 1.0
    ctx.end(span)
    ctx.finish()
    assert span.tags["trace_id"] == ctx.trace_id
    assert span.parent_id == ctx.root.span_id


def test_stage_map_covers_the_span_vocabulary():
    assert stage_of("request") is None        # container
    assert stage_of("batch") is None          # container
    assert stage_of("nvme_io") == "media"
    assert stage_of("fabric_transfer") == "fabric"
    assert stage_of("never_heard_of_it") == "other"


# -- attribution -------------------------------------------------------

def _cam_run(requests=16):
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    tracer = install_tracer(platform.env)
    manager = CamManager(platform)
    lbas = np.arange(requests, dtype=np.int64) * 8
    batch = BatchRequest(lbas=lbas, granularity=4096, is_write=False)
    platform.env.run(manager.ring(batch))
    return tracer


def test_attribution_partitions_the_request_wall_exactly():
    tracer = _cam_run()
    analyzer = CriticalPathAnalyzer(tracer)
    (tid,) = analyzer.request_ids()
    root = analyzer.root(tid)
    attributed = analyzer.attribute(tid)
    assert abs(sum(attributed.values()) - root.duration) < EXACT
    # a bare CAM batch is fully covered: reactor work, media, PCIe
    assert UNTRACKED not in attributed
    assert attributed["media"] > 0
    assert attributed["reactor_cpu"] > 0
    assert analyzer.coverage(tid) == pytest.approx(1.0)


def test_deeper_spans_win_overlapping_segments():
    """nvme_io under the batch must beat the engine-level wait that
    encloses it — exclusive attribution, not double counting."""
    clock = _Clock()
    tracer = Tracer(clock)
    ctx = mint_context(tracer, "unit")
    wait = ctx.begin("load_wait")
    inner = tracer.begin("nvme_io", parent=wait,
                         trace_id=ctx.trace_id)
    clock.now = 3.0
    tracer.end(inner)
    clock.now = 4.0
    ctx.end(wait)
    ctx.finish()
    analyzer = CriticalPathAnalyzer(tracer)
    attributed = analyzer.attribute(ctx.trace_id)
    assert attributed["media"] == pytest.approx(3.0)
    assert attributed["io_wait"] == pytest.approx(1.0)
    assert sum(attributed.values()) == pytest.approx(4.0)


def test_untracked_residue_is_reported_not_absorbed():
    clock = _Clock()
    tracer = Tracer(clock)
    ctx = mint_context(tracer, "unit")
    span = ctx.begin("nvme_io")
    clock.now = 1.0
    ctx.end(span)
    clock.now = 4.0  # 3 idle seconds no stage span covers
    ctx.finish()
    analyzer = CriticalPathAnalyzer(tracer)
    attributed = analyzer.attribute(ctx.trace_id)
    assert attributed[UNTRACKED] == pytest.approx(3.0)
    assert analyzer.coverage(ctx.trace_id) == pytest.approx(0.25)


def test_serving_turn_coverage_meets_the_acceptance_floor():
    """Acceptance: stage attribution sums to >= 95% of turn latency on
    a full serving workload (the residue is reported as untracked)."""
    _, tracer, result = run_demo("base", num_sessions=20)
    analyzer = CriticalPathAnalyzer(tracer)
    roots = analyzer.requests(kind="serving_turn")
    assert len(roots) == result.turns_done
    for root in roots:
        tid = int(root.tags["trace_id"])
        attributed = analyzer.attribute(tid)
        assert abs(sum(attributed.values()) - root.duration) < 1e-9
        assert analyzer.coverage(tid) >= 0.95


def test_flow_links_tie_the_coalesced_batch_to_its_request():
    tracer = _cam_run()
    analyzer = CriticalPathAnalyzer(tracer)
    (tid,) = analyzer.request_ids()
    batch = [s for s in tracer.spans() if s.name == "batch"]
    assert len(batch) == 1
    assert link_of(batch[0]) == (tid,)
    rows = analyzer.waterfall(tid)
    linked = [r for r in rows if tid in r["links"]]
    assert linked, "waterfall lost the batch flow link"


# -- seeded bottleneck scenarios ---------------------------------------

def test_tail_attribution_fingers_ssd_media_degradation():
    _, tracer, _ = run_demo("ssd-degrade")
    cohorts = CriticalPathAnalyzer(tracer).attribute_cohorts(
        kind="serving_turn"
    )
    assert cohorts["dominant"] == "media"
    assert cohorts["delta_s"]["media"] > 0


def test_tail_attribution_fingers_fabric_brownout():
    _, tracer, _ = run_demo("fabric-brownout")
    cohorts = CriticalPathAnalyzer(tracer).attribute_cohorts(
        kind="serving_turn"
    )
    assert cohorts["dominant"] == "fabric"
    assert cohorts["delta_s"]["fabric"] > 0


# -- exemplars ---------------------------------------------------------

def test_every_latency_family_resolves_an_exemplar_to_a_waterfall():
    """Acceptance: each cam_* latency family surfaces an exemplar
    trace id that resolves into a waterfall with >= 1 flow link."""
    from repro.backends.base import make_backend
    from repro.serving import (
        KvBlockStore,
        KvLayout,
        ServingEngine,
        SessionConfig,
        SessionPool,
    )

    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    metrics = install_metrics(platform.env)
    tracer = install_tracer(platform.env)
    backend = make_backend("cam", platform)
    store = KvBlockStore(platform, KvLayout(), capacity_blocks=12)
    pool = SessionPool(
        SessionConfig(num_sessions=20, seed=17, mean_think_s=5e-3,
                      turns_min=2, turns_max=3)
    )
    ServingEngine(platform, backend, store, pool,
                  max_concurrent_decodes=16).run()

    exemplars = metrics.registry.exemplars()
    families = {key.split("{")[0] for key in exemplars}
    assert "cam_batch_latency_seconds" in families
    assert "cam_request_latency_seconds" in families

    analyzer = CriticalPathAnalyzer(tracer)
    for key, (trace_id, value) in exemplars.items():
        assert value > 0
        root = analyzer.root(trace_id)  # raises KeyError if dangling
        rows = analyzer.waterfall(trace_id)
        assert rows[0]["name"] == "request"
        assert any(r["links"] for r in rows), (
            f"{key} exemplar {trace_id} has no cross-layer flow link"
        )
        # the batch exemplar's value is the batch span's duration, the
        # request exemplar's the root's; both lie within the window
        assert value <= root.duration + 1e-12


def test_exemplar_keeps_the_worst_observation():
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    metrics = install_metrics(platform.env)
    hist = metrics.registry.histogram("x_seconds", unit="seconds")
    child = hist.child()
    child.observe(0.5, trace_id=1)
    child.observe(2.0, trace_id=2)
    child.observe(1.0, trace_id=3)
    child.observe(9.9)  # untraced observations never become exemplars
    assert child.exemplar == (2, 2.0)


# -- orphan detection (satellite 1) ------------------------------------

def test_orphan_spans_detected_after_parent_eviction():
    clock = _Clock()
    tracer = Tracer(clock, capacity=4)
    parent = tracer.begin("batch")
    clock.now = 1.0
    tracer.end(parent)
    # four children commit after it: the ring (capacity 4) evicts the
    # parent, leaving dangling parent_ids behind
    for index in range(4):
        child = tracer.begin("submit", parent=parent, index=index)
        clock.now += 1.0
        tracer.end(child)
    analyzer = TraceAnalyzer(tracer)
    orphans = analyzer.orphan_spans()
    assert len(orphans) == 4
    assert all(s.parent_id == parent.span_id for s in orphans)
    summary = analyzer.summary()
    assert summary["orphan_spans"] == 4


def test_no_orphans_in_an_unevicted_trace():
    tracer = _cam_run(requests=4)
    assert tracer.dropped == 0
    analyzer = TraceAnalyzer(tracer)
    assert analyzer.orphan_spans() == []
    assert analyzer.summary()["orphan_spans"] == 0


# -- CSV round trip (satellite 2) --------------------------------------

_tag_values = st.one_of(
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),  # includes commas, quotes, newlines
    st.booleans(),
    st.none(),
    st.lists(st.integers(min_value=0, max_value=99), max_size=4),
)

_tags = st.dictionaries(
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"),
            whitelist_characters="_",
        ),
        min_size=1,
        max_size=12,
    ),
    _tag_values,
    max_size=5,
)


@given(tags=_tags, name=st.text(min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_csv_round_trip_preserves_arbitrary_tags(tmp_path_factory,
                                                 tags, name):
    path = tmp_path_factory.mktemp("trace") / "roundtrip.csv"
    span = Span(1, name, 0.25, tags=dict(tags))
    span.end = 1.75
    export_trace_csv([span], path)
    (restored,) = load_trace_csv(path)
    assert restored.name == name
    assert restored.begin == span.begin
    assert restored.end == span.end
    assert restored.tags == tags


def test_csv_round_trip_handles_hostile_and_numpy_tags(tmp_path):
    hostile = {
        "note": 'line1\nline2,"quoted", done',
        "lba": np.int64(123456789),
        "ratio": np.float64(0.125),
        "links": [np.int64(3), np.int64(4)],
        "flags": (1, 2),
    }
    span = Span(7, "nvme_io", 1.0, parent_id=3, tags=hostile)
    span.end = 2.0
    path = tmp_path / "hostile.csv"
    export_trace_csv([span], path)
    (restored,) = load_trace_csv(path)
    assert restored.tags["note"] == hostile["note"]
    assert restored.tags["lba"] == 123456789
    assert restored.tags["ratio"] == 0.125
    assert restored.tags["links"] == [3, 4]
    assert restored.tags["flags"] == [1, 2]  # tuples flatten to lists
    assert restored.parent_id == 3


def test_csv_round_trip_keeps_numpy_typed_times(tmp_path):
    span = Span(1, "nvme_io", np.float64(0.000313))
    span.end = np.float64(0.000627)
    path = tmp_path / "numpy_times.csv"
    export_trace_csv([span], path)
    (restored,) = load_trace_csv(path)
    assert (restored.begin, restored.end) == (0.000313, 0.000627)


def test_csv_round_trip_preserves_causal_analysis(tmp_path):
    """The critical-path verdict must survive export/import."""
    _, tracer, _ = run_demo("base", num_sessions=10)
    path = tmp_path / "serving.csv"
    export_trace_csv(tracer, path)
    original = CriticalPathAnalyzer(tracer)
    reloaded = CriticalPathAnalyzer(load_trace_csv(path))
    assert reloaded.request_ids() == original.request_ids()
    for tid in original.request_ids():
        assert reloaded.attribute(tid) == pytest.approx(
            original.attribute(tid)
        )
