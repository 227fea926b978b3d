"""Tests for the SPDK reactor/driver substrate."""

import pytest

from repro.backends import make_backend, measure_throughput
from repro.config import PlatformConfig, SPDKConfig
from repro.errors import ConfigurationError
from repro.hw.platform import Platform
from repro.sim import Environment
from repro.spdk import ReactorPool, SpdkDriver
from repro.spdk.reactor import Reactor
from repro.units import KiB


def test_reactor_pool_round_robin_assignment():
    env = Environment()
    pool = ReactorPool(env, num_ssds=6, num_reactors=3, config=SPDKConfig())
    owners = [pool.reactor_for(i).reactor_id for i in range(6)]
    assert owners == [0, 1, 2, 0, 1, 2]
    assert pool.ssds_on_reactor(0) == 2


def test_reactor_pool_validates_inputs():
    env = Environment()
    with pytest.raises(ConfigurationError):
        ReactorPool(env, num_ssds=0, num_reactors=1, config=SPDKConfig())
    with pytest.raises(ConfigurationError):
        ReactorPool(env, num_ssds=1, num_reactors=0, config=SPDKConfig())
    pool = ReactorPool(env, num_ssds=2, num_reactors=1, config=SPDKConfig())
    with pytest.raises(ConfigurationError):
        pool.reactor_for(5)


def test_reactor_serializes_cpu_work():
    env = Environment()
    pool = ReactorPool(env, num_ssds=1, num_reactors=1, config=SPDKConfig())
    reactor = pool.reactors[0]
    done = []

    def worker():
        yield from reactor.charge()
        done.append(env.now)

    for _ in range(3):
        env.process(worker())
    env.run()
    per = SPDKConfig().per_request_cpu
    assert done == pytest.approx([per, 2 * per, 3 * per])


def test_reactor_iops_capacity():
    env = Environment()
    pool = ReactorPool(env, num_ssds=1, num_reactors=1, config=SPDKConfig())
    assert pool.reactors[0].iops_capacity == pytest.approx(
        1.0 / SPDKConfig().per_request_cpu
    )


def test_driver_single_io_roundtrip():
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    driver = SpdkDriver(platform)

    def proc():
        cqe = yield from driver.io(0, 4096)
        return cqe

    cqe = platform.env.run(platform.env.process(proc()))
    assert cqe.ok
    assert driver.requests_done.total == 1


def test_driver_kernel_bypass_is_fast():
    """SPDK's request path has no kernel layers: per-request wall time is
    device latency plus sub-microsecond CPU."""
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    driver = SpdkDriver(platform)
    env = platform.env

    def proc():
        start = env.now
        yield from driver.io(0, 4096)
        return env.now - start

    elapsed = env.run(env.process(proc()))
    assert elapsed < 35e-6  # vs ~25+ us of kernel layers for POSIX


def test_fig12_thread_scaling_shape():
    """1 reactor per 2 SSDs lossless; 1 per 4 SSDs ~75% (paper Fig. 12)."""
    results = {}
    for reactors in (6, 3):
        platform = Platform(PlatformConfig(num_ssds=12), functional=False)
        backend = make_backend("spdk", platform, num_reactors=reactors,
                               to_gpu=False)
        results[reactors] = measure_throughput(
            backend, 4 * KiB, total_requests=1200, concurrency=512
        )
    ratio = results[3] / results[6]
    assert 0.6 < ratio < 0.9  # ~75% with queueing noise


def test_reactor_accounting_tracks_requests():
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    driver = SpdkDriver(platform)

    def proc():
        for _ in range(5):
            yield from driver.io(0, 4096)

    platform.env.run(platform.env.process(proc()))
    reactor = driver.pool.reactors[0]
    assert reactor.accountant.requests == 5
    assert reactor.accountant.total_instructions > 0


def test_write_polling_costs_more_than_read():
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    driver = SpdkDriver(platform)

    def proc():
        yield from driver.io(0, 4096, is_write=False)

    platform.env.run(platform.env.process(proc()))
    read_instr = driver.pool.reactors[0].accountant.instructions_per_request()

    platform2 = Platform(PlatformConfig(num_ssds=1), functional=False)
    driver2 = SpdkDriver(platform2)

    def proc2():
        yield from driver2.io(0, 4096, is_write=True)

    platform2.env.run(platform2.env.process(proc2()))
    write_instr = (
        driver2.pool.reactors[0].accountant.instructions_per_request()
    )
    assert write_instr > read_instr


@pytest.mark.parametrize("is_write", [False, True])
@pytest.mark.parametrize("count", [1, 2, 3, 7, 64, 255, 2048, 4096, 8192])
def test_account_batch_matches_per_request_accounting(count, is_write):
    """One bulk call equals ``count`` single calls exactly in requests
    and instructions, and in cycles only up to rounding: e.g. 2048
    reads give 418909.0909090909 submit cycles one way and
    418909.0909090953 the other."""
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    poll = SpdkDriver(platform)._poll_iterations(is_write)
    config = SPDKConfig()
    bulk = Reactor(platform.env, 0, config)
    single = Reactor(platform.env, 1, config)
    bulk.account_batch(count, poll_iterations=poll)
    for _ in range(count):
        single.account_request(poll_iterations=poll)
    assert bulk.accountant.requests == single.accountant.requests == count
    for category in ("submit", "poll"):
        got = bulk.accountant.samples[category]
        want = single.accountant.samples[category]
        assert got.instructions == want.instructions
        assert got.cycles == pytest.approx(want.cycles, rel=1e-12, abs=0)
