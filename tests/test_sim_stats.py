"""Unit tests for the statistics collectors."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Counter, Environment, TimeWeightedStat
from repro.sim.stats import LatencyStat


def _advance(env, dt):
    env.process(iter([env.timeout(dt)]))
    env.run()


def test_time_weighted_mean():
    env = Environment()
    stat = TimeWeightedStat(env)

    def proc():
        stat.record(2.0)
        yield env.timeout(1.0)
        stat.record(4.0)
        yield env.timeout(1.0)
        stat.record(0.0)
        yield env.timeout(2.0)

    env.run(env.process(proc()))
    # 2*1 + 4*1 + 0*2 over 4 seconds
    assert stat.mean() == pytest.approx(1.5)
    assert stat.maximum == pytest.approx(4.0)


def test_time_weighted_add_and_reset():
    env = Environment()
    stat = TimeWeightedStat(env, initial=1.0)

    def proc():
        yield env.timeout(2.0)
        stat.add(3.0)
        stat.reset()
        yield env.timeout(1.0)

    env.run(env.process(proc()))
    assert stat.value == pytest.approx(4.0)
    assert stat.mean() == pytest.approx(4.0)  # window restarted


def test_counter_rate():
    env = Environment()
    counter = Counter(env)

    def proc():
        counter.add(10)
        yield env.timeout(2.0)
        counter.add(10)

    env.run(env.process(proc()))
    assert counter.total == 20
    assert counter.rate() == pytest.approx(10.0)


def test_counter_rate_zero_window():
    env = Environment()
    counter = Counter(env)
    counter.add(5)
    assert counter.rate() == 0.0


def test_latency_percentiles():
    stat = LatencyStat()
    for value in range(1, 101):
        stat.record(float(value))
    assert stat.count == 100
    assert stat.mean() == pytest.approx(50.5)
    assert stat.percentile(50) == pytest.approx(50.0)
    assert stat.percentile(99) == pytest.approx(99.0)
    assert stat.percentile(100) == pytest.approx(100.0)
    assert stat.maximum() == pytest.approx(100.0)


def test_latency_percentile_bounds_checked():
    stat = LatencyStat()
    stat.record(1.0)
    with pytest.raises(ValueError):
        stat.percentile(101)


def test_latency_empty():
    stat = LatencyStat()
    assert stat.mean() == 0.0
    assert stat.percentile(50) == 0.0
    assert stat.maximum() == 0.0


def _reference(samples, q):
    """What a list-based collector reports for ``samples``."""
    if not samples:
        return 0, 0.0, 0.0, 0.0, 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))
    return (
        len(samples), sum(samples), sum(samples) / len(samples),
        ordered[rank], max(samples),
    )


_latencies = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), max_size=200
)


@given(_latencies, _latencies, st.floats(min_value=0.0, max_value=100.0))
def test_latency_stat_matches_a_list_reference(before, after, q):
    """Packed samples report what a list of the same floats would,
    also after a reset."""
    stat = LatencyStat()
    for samples in (before, after):
        stat.reset()
        for value in samples:
            stat.record(value)
        assert list(stat._samples) == samples
        assert len(stat) == len(samples)
        assert (
            stat.count, stat.total(), stat.mean(), stat.percentile(q),
            stat.maximum(),
        ) == _reference(samples, q)
