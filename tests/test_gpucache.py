"""GPU cache tier: replacement, readahead detector, plan/commit
protocol, serving + graph integration, telemetry."""

import pytest

from repro.backends import make_backend
from repro.cache import (
    GpuCache,
    ReadaheadConfig,
    ReadaheadStream,
    Residency,
)
from repro.config import PlatformConfig
from repro.errors import ConfigurationError
from repro.hw.platform import Platform
from repro.units import KiB


def _platform(num_ssds=2):
    return Platform(PlatformConfig(num_ssds=num_ssds), functional=False)


def _cache(platform=None, lines=4, line_bytes=4096, readahead=False,
           **kwargs):
    platform = platform or _platform()
    return platform, GpuCache(
        platform, capacity_bytes=lines * line_bytes,
        line_bytes=line_bytes, readahead=readahead, **kwargs,
    )


# --- replacement -----------------------------------------------------------

def test_lru_policy_evicts_least_recently_used():
    residency = Residency(3)
    for line in (1, 2, 3):
        assert residency.admit(line) == []
    residency.touch(1)
    assert list(residency) == [2, 3, 1]
    assert residency.admit(4) == [2]
    assert residency.admit(3) == []        # re-admission refreshes
    assert residency.admit(5) == [1]
    assert list(residency) == [4, 3, 5]
    with pytest.raises(KeyError):
        residency.touch(1)                 # touch never admits


# --- readahead detector -----------------------------------------------------

def test_detector_predicts_sequential_run_after_min_run():
    stream = ReadaheadStream(ReadaheadConfig(depth=3, min_run=3))
    assert stream.observe(10) == []
    assert stream.observe(11) == []
    # third access completes the min_run=3 stride-1 pattern
    assert stream.observe(12) == [13, 14, 15]


def test_detector_predicts_strided_pattern():
    stream = ReadaheadStream(ReadaheadConfig(depth=2, min_run=3))
    for line in (0, 4, 8):
        predictions = stream.observe(line)
    assert predictions == [12, 16]


def test_detector_stride_change_resets_run():
    stream = ReadaheadStream(ReadaheadConfig(depth=2, min_run=3))
    stream.observe(0)
    stream.observe(1)
    stream.observe(5)   # stride breaks
    assert stream.observe(6) == []      # run=2 only
    assert stream.observe(7) == [8, 9]  # pattern re-established


def test_detector_repeat_access_is_neutral():
    stream = ReadaheadStream(ReadaheadConfig(depth=2, min_run=3))
    stream.observe(0)
    stream.observe(1)
    assert stream.observe(1) == []      # repeat: no prediction
    assert stream.observe(2) == [3, 4]  # but the run survived


def test_detector_throttles_on_low_accuracy_then_reprobes():
    config = ReadaheadConfig(
        depth=4, min_run=2, min_accuracy=0.5, probation=4, cooldown=3
    )
    stream = ReadaheadStream(config)
    stream.observe(0)
    predictions = stream.observe(1)
    assert predictions
    stream.charge(len(predictions))  # 4 issued, 0 used -> violation
    assert stream.observe(2) == []   # throttled
    assert stream.throttled
    assert stream.throttles == 1
    # sit out the cooldown; counters reset for a fresh probation
    for line in (3, 4, 5):
        stream.observe(line)
    assert not stream.throttled
    assert stream.issued == 0 and stream.used == 0
    assert stream.observe(6) != []


def test_detector_accurate_stream_never_throttles():
    config = ReadaheadConfig(
        depth=1, min_run=2, min_accuracy=0.5, probation=2, cooldown=8
    )
    stream = ReadaheadStream(config)
    stream.observe(0)
    for line in range(1, 20):
        predictions = stream.observe(line)
        assert predictions == [line + 1]
        stream.charge(1)
        stream.credit()
    assert stream.throttles == 0


def test_readahead_config_validation():
    with pytest.raises(ConfigurationError):
        ReadaheadConfig(depth=0)
    with pytest.raises(ConfigurationError):
        ReadaheadConfig(min_run=1)
    with pytest.raises(ConfigurationError):
        ReadaheadConfig(min_accuracy=1.5)
    with pytest.raises(ConfigurationError):
        ReadaheadConfig(cooldown=0)


# --- GpuCache plan/commit ---------------------------------------------------

def test_cache_geometry_and_validation():
    platform = _platform()
    with pytest.raises(ConfigurationError):
        GpuCache(platform, capacity_bytes=100, line_bytes=4096)
    with pytest.raises(ConfigurationError):
        GpuCache(platform, capacity_bytes=1 << 20, line_bytes=1000)
    _, cache = _cache(platform)
    assert cache.line_of(0) == 0
    assert cache.line_of(8) == 1       # 8 * 512B = one 4 KiB line
    assert cache.line_lba(2) == 16


def test_batch_miss_then_hit_accounting():
    platform, cache = _cache()
    plan = cache.access_batch([0, 8], granularity=4096)
    assert plan.missing_lbas == [0, 8] and not plan.hit_lbas
    cache.commit(plan)
    plan = cache.access_batch([0, 8, 16], granularity=4096)
    assert plan.hit_lbas == [0, 8]
    assert plan.missing_lbas == [16]
    assert cache.hits == 2 and cache.misses == 3
    assert cache.hit_rate() == pytest.approx(2 / 5)


def test_batch_item_crossing_lines_rejected():
    platform, cache = _cache()
    with pytest.raises(ConfigurationError):
        cache.access_batch([4], granularity=4096)  # straddles lines 0/1
    with pytest.raises(ConfigurationError):
        cache.access_batch([0], granularity=8192)  # bigger than a line


def test_eviction_respects_capacity_and_counts():
    platform, cache = _cache(lines=2)
    for lba in (0, 8, 16):
        cache.commit(cache.access_batch([lba]))
    assert cache.resident_lines == 2
    assert cache.evictions == 1
    assert not cache.is_resident(0)   # LRU victim


def test_uncommitted_miss_is_inflight_not_resident():
    platform, cache = _cache()
    plan = cache.access_batch([0])
    # a second access while the fetch is in flight is still a miss
    plan2 = cache.access_batch([0])
    assert plan2.missing_lbas == [0]
    assert cache.misses == 2
    cache.commit(plan)
    cache.commit(plan2)
    assert cache.resident_lines == 1


def test_abort_clears_inflight():
    platform, cache = _cache()
    plan = cache.access_batch([0])
    cache.abort(plan)
    assert cache.resident_lines == 0
    plan = cache.access_batch([0])
    assert plan.missing_lbas == [0]
    cache.commit(plan)
    assert cache.is_resident(0)


def test_readahead_issue_use_and_waste_accounting():
    platform, cache = _cache(
        lines=16,
        readahead=ReadaheadConfig(depth=2, min_run=2, probation=64),
    )
    cache.commit(cache.access_batch([0]))
    plan = cache.access_batch([8])  # stride-1 line pattern confirmed
    assert plan.speculative_lines == [2, 3]
    assert plan.speculative_lbas == [16, 24]
    assert cache.readahead_issued == 2
    cache.commit(plan)
    # demand access consumes one speculative line -> used
    plan = cache.access_batch([16])
    assert plan.hit_lbas == [16]
    assert cache.readahead_used == 1
    # stream accuracy reflects the credit
    assert cache.stream(0).used == 1


def test_unused_speculative_eviction_counts_as_waste():
    platform, cache = _cache(
        lines=2,
        readahead=ReadaheadConfig(depth=1, min_run=2, probation=64),
    )
    cache.commit(cache.access_batch([0]))
    plan = cache.access_batch([8])   # speculates line 2
    cache.commit(plan)               # cache now over capacity -> evict
    # keep pushing demand lines until the speculative line is evicted
    cache.commit(cache.access_batch([32]))
    cache.commit(cache.access_batch([40]))
    assert cache.readahead_wasted >= 1
    assert cache.readahead_used == 0


def test_demand_hit_on_inflight_speculation_credits_stream():
    platform, cache = _cache(
        lines=8,
        readahead=ReadaheadConfig(depth=1, min_run=2, probation=64),
    )
    cache.commit(cache.access_batch([0]))
    plan = cache.access_batch([8])   # line 2 now speculative-inflight
    assert plan.speculative_lines == [2]
    demand = cache.access_batch([16])  # wants line 2 before it landed
    assert demand.missing_lbas == [16]
    assert cache.readahead_used == 1   # prediction was right anyway
    cache.commit(plan)
    cache.commit(demand)


def test_streams_are_per_consumer():
    platform, cache = _cache(
        lines=16,
        readahead=ReadaheadConfig(depth=1, min_run=2, probation=64),
    )
    # interleaved consumers: each sees its own sequential stream
    cache.commit(cache.access_batch([0], consumer="a"))
    cache.commit(cache.access_batch([80], consumer="b"))
    plan_a = cache.access_batch([8], consumer="a")
    plan_b = cache.access_batch([88], consumer="b")
    assert plan_a.speculative_lines == [2]
    assert plan_b.speculative_lines == [12]
    assert cache.stream("a") is not cache.stream("b")


def test_fill_admits_only_fully_covered_lines():
    platform, cache = _cache(lines=8)
    cache.fill([0], granularity=4096)       # full line 0
    cache.fill([8], granularity=2048)       # half of line 1
    assert cache.is_resident(0)
    assert not cache.is_resident(8)
    assert cache.fills == 1


# --- telemetry --------------------------------------------------------------

def test_gpucache_families_reach_registry_sampler_and_top():
    from repro.obs import MetricsSampler, install_metrics
    from repro.tools.top import render_sample

    platform = _platform()
    metrics = install_metrics(platform.env)
    _, cache = _cache(
        platform,
        lines=8,
        readahead=ReadaheadConfig(depth=1, min_run=2, probation=64),
    )
    sampler = MetricsSampler(metrics, gpu_cache=cache, autostart=False)
    cache.commit(cache.access_batch([0]))
    cache.commit(cache.access_batch([8]))
    cache.commit(cache.access_batch([0]))
    _, snap = sampler.sample_now()
    assert snap["cam_gpucache_hits_total"] == 1
    assert snap["cam_gpucache_misses_total"] == 2
    assert snap["cam_gpucache_hit_rate"] == pytest.approx(1 / 3)
    # lines 0, 1 demand-resident plus the committed speculative line 2
    assert snap["cam_gpucache_resident_lines"] == 3
    assert snap["cam_gpucache_readahead_issued_total"] == 1
    screen = render_sample(sampler.latest())
    assert "GPUCACHE" in screen
    assert "readahead" in screen


def test_gpucache_without_metrics_registers_nothing():
    platform, cache = _cache()
    cache.commit(cache.access_batch([0]))
    assert not platform.env.metrics.enabled


# --- serving + graph integration --------------------------------------------

def test_serving_cache_off_is_bit_identical_to_pre_cache_build():
    from repro.experiments.serving import serve_once
    from tests.golden import GOLDEN

    _, sim_end = serve_once("cam", 100)
    assert sim_end == GOLDEN["serving_cache_off_sim_end"].value[100]


def test_serving_gpu_cache_keeps_throughput_and_hits():
    from repro.experiments.serving import serve_once

    off, _ = serve_once("cam", 100)
    on, _ = serve_once("cam", 100, gpu_cache_blocks=2048,
                       readahead=True)
    assert on.tokens_per_s >= off.tokens_per_s
    assert on.turns_done == off.turns_done
    assert on.tokens_done == off.tokens_done


def test_serving_rejects_mismatched_line_size():
    from repro.serving import (
        KvBlockStore, KvLayout, ServingEngine, SessionConfig, SessionPool,
    )

    platform = _platform()
    backend = make_backend("cam", platform)
    store = KvBlockStore(platform, KvLayout(), capacity_blocks=16)
    pool = SessionPool(SessionConfig(num_sessions=1))
    cache = GpuCache(platform, capacity_bytes=1 << 20, line_bytes=4096)
    with pytest.raises(ConfigurationError):
        ServingEngine(platform, backend, store, pool, gpu_cache=cache)


def test_graph_cache_modes_and_gate():
    from repro.experiments.gpucache import graph_cache_once

    off, _ = graph_cache_once("off", num_batches=3)
    cached, _ = graph_cache_once("cache", num_batches=3)
    assert cached["hit_rate"] > 0.1       # hub reuse absorbed
    assert cached["bytes_per_s"] > off["bytes_per_s"]
    with pytest.raises(ConfigurationError):
        graph_cache_once("bogus")


def test_gpucache_experiment_quick():
    from repro.experiments.gpucache import run_gpucache

    result = run_gpucache(quick=True)
    assert result.exp_id == "gpucache"
    assert len(result.tables) == 2
    modes = [row[0] for row in result.tables[0].rows]
    assert modes == ["off", "cache", "cache+ra"]
