"""Differential tests: coalesced submission vs per-request fan-out.

The manager's coalesced walks (:meth:`~repro.spdk.driver.SpdkDriver.walk`)
must be a pure wall-clock optimization: every simulated quantity — batch
I/O times, per-request device latencies (values *and* completion order),
completion counts, fault outcomes, and the final simulated clock — has to
match the per-request fan-out of :class:`tests.fanout_oracle.FanOutManager`
bit for bit.  These tests run the same workloads through both and compare.
"""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.errors import ConfigurationError, DeviceError, SimulationError
from repro.hw.faults import FaultInjector
from repro.hw.platform import Platform
from repro.oskernel.blockio import CompletionDispatcher
from repro.reliability import Reliability
from repro.sim.core import Environment
from repro.sim.resources import Store
from tests.fanout_oracle import FanOutManager
from tests.golden import GOLDEN


def _run_batches(
    manager_class,
    num_ssds=4,
    num_cores=2,
    requests=256,
    is_write=False,
    batches=2,
    error_rate=0.0,
):
    """Run ``batches`` deterministic batches; return everything observable."""
    platform = Platform(PlatformConfig(num_ssds=num_ssds), functional=False)
    if error_rate:
        injector = FaultInjector(seed=7, error_rate=error_rate)
        platform.fault_injector = injector
        for ssd in platform.ssds:
            ssd.fault_injector = injector
    manager = manager_class(platform, num_cores=num_cores)
    env = platform.env
    outcomes = []
    for index in range(batches):
        lbas = (np.arange(requests, dtype=np.int64) * 7 + index * 13) % (
            1 << 18
        )
        done = manager.ring(
            BatchRequest(lbas=lbas, granularity=4096, is_write=is_write)
        )
        try:
            outcomes.append(("ok", env.run(done)))
        except DeviceError as error:
            outcomes.append(("err", type(error).__name__, str(error)))
    stat = "write_latency" if is_write else "read_latency"
    latencies = [tuple(getattr(s, stat)._samples) for s in platform.ssds]
    counts = [
        (s.reads_completed.total, s.writes_completed.total, s.faults_reported)
        for s in platform.ssds
    ]
    return {
        "outcomes": outcomes,
        "latencies": latencies,
        "counts": counts,
        "sim_end": env.now,
        "events": env.events_processed,
        "requests_done": manager.requests_done.total,
    }


def _assert_identical(fanout, coalesced):
    assert coalesced["outcomes"] == fanout["outcomes"]
    # per-SSD latency sample lists pin both the values and the completion
    # order of every individual request
    assert coalesced["latencies"] == fanout["latencies"]
    assert coalesced["counts"] == fanout["counts"]
    assert coalesced["sim_end"] == fanout["sim_end"]
    assert coalesced["requests_done"] == fanout["requests_done"]


def test_read_batches_identical():
    fanout = _run_batches(FanOutManager)
    coalesced = _run_batches(CamManager)
    _assert_identical(fanout, coalesced)


def test_write_batches_identical():
    fanout = _run_batches(FanOutManager, is_write=True)
    coalesced = _run_batches(CamManager, is_write=True)
    _assert_identical(fanout, coalesced)


def test_shared_reactor_batches_identical():
    # more SSDs than reactors: groups span SSDs on the same reactor
    fanout = _run_batches(FanOutManager, num_ssds=8, num_cores=3, requests=512)
    coalesced = _run_batches(CamManager, num_ssds=8, num_cores=3, requests=512)
    _assert_identical(fanout, coalesced)


def test_single_ssd_batches_identical():
    fanout = _run_batches(FanOutManager, num_ssds=1, num_cores=1, requests=64)
    coalesced = _run_batches(CamManager, num_ssds=1, num_cores=1, requests=64)
    _assert_identical(fanout, coalesced)


def test_fault_injected_read_batches_identical():
    fanout = _run_batches(FanOutManager, error_rate=0.02)
    coalesced = _run_batches(CamManager, error_rate=0.02)
    assert any(o[0] == "err" for o in fanout["outcomes"]), (
        "fault config produced no failures; raise error_rate"
    )
    _assert_identical(fanout, coalesced)


def test_fault_injected_write_batches_identical():
    fanout = _run_batches(FanOutManager, is_write=True, error_rate=0.02)
    coalesced = _run_batches(CamManager, is_write=True, error_rate=0.02)
    _assert_identical(fanout, coalesced)


def test_coalesced_processes_fewer_events():
    fanout = _run_batches(FanOutManager, num_ssds=8, num_cores=3, requests=512)
    coalesced = _run_batches(CamManager, num_ssds=8, num_cores=3, requests=512)
    # the point of the exercise: same simulation, fewer heap events
    assert coalesced["events"] < 0.7 * fanout["events"]


# -- io_batch API edges ----------------------------------------------------

def test_io_batch_rejects_reliability():
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    from repro.spdk.driver import SpdkDriver

    class _FakeReliability:
        watchdog = None
        health = None

    driver = SpdkDriver(platform, reliability=_FakeReliability())
    with pytest.raises(ConfigurationError):
        # generator raises on first advance
        next(driver.io_batch([(0, 0, 0, None)], 4096))


def test_io_batch_rejects_mixed_reactors():
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    from repro.spdk.driver import SpdkDriver

    driver = SpdkDriver(platform, num_reactors=2)
    # SSDs 0 and 1 live on different reactors under round-robin
    items = [(0, 0, 0, None), (1, 1, 0, None)]

    def caller():
        yield from driver.io_batch(items, 4096)

    process = platform.env.process(caller())
    with pytest.raises(ConfigurationError):
        platform.env.run(process)


def test_io_batch_mixed_reactor_error_reaches_the_caller():
    """The error is thrown into the generator driving ``io_batch``, at
    the request that found the mix, and the reactor's serial slot is
    handed back."""
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    from repro.spdk.driver import SpdkDriver

    driver = SpdkDriver(platform, num_reactors=2)
    env = platform.env
    caught = []

    def caller():
        try:
            yield from driver.io_batch(
                [(0, 0, 0, None), (1, 1, 0, None)], 4096
            )
        except ConfigurationError as error:
            caught.append((env.now, str(error)))
        results = yield from driver.io_batch([(0, 0, 8, None)], 4096)
        return results

    results = env.run(env.process(caller()))
    assert caught == [(
        driver.config.per_request_cpu,
        "io_batch group mixes reactors: SSD 1 is owned by reactor 1, "
        "group started on 0",
    )]
    assert [index for index, _ in results] == [0]
    assert results[0][1].ok


def test_io_batch_empty_items_is_noop():
    platform = Platform(PlatformConfig(num_ssds=1), functional=False)
    from repro.spdk.driver import SpdkDriver

    driver = SpdkDriver(platform)

    def caller():
        result = yield from driver.io_batch([], 4096)
        return result

    assert platform.env.run(platform.env.process(caller())) == []


# -- completion groups -----------------------------------------------------

def _dispatcher():
    env = Environment()
    qp = type("QP", (), {"pop_completion": lambda self: Store(env).get()})()
    return env, CompletionDispatcher(env, qp)


def test_group_expect_after_seal_raises():
    env, dispatcher = _dispatcher()
    group = dispatcher.open_group()
    dispatcher.expect(group, 1)
    dispatcher.seal(group)
    with pytest.raises(SimulationError):
        dispatcher.expect(group, 2)


def test_group_duplicate_command_id_raises():
    env, dispatcher = _dispatcher()
    group = dispatcher.open_group()
    dispatcher.expect(group, 1)
    with pytest.raises(SimulationError):
        dispatcher.expect(group, 1)
    # also clashes with per-command waiters
    dispatcher.register(2)
    with pytest.raises(SimulationError):
        dispatcher.expect(group, 2)
    with pytest.raises(SimulationError):
        dispatcher.register(1)


def test_empty_sealed_group_fires_immediately():
    env, dispatcher = _dispatcher()
    group = dispatcher.open_group()
    dispatcher.seal(group)
    assert group.event.triggered
    assert group.event._value == {}


# -- reactor remapping (Fig. 12 dynamic cores) -----------------------------

def test_reactor_pool_remap_round_robins_over_active():
    from repro.spdk.reactor import ReactorPool
    from repro.config import SPDKConfig

    env = Environment()
    pool = ReactorPool(env, num_ssds=6, num_reactors=3, config=SPDKConfig())
    pool.remap(2)
    assert [pool.reactor_for(i).reactor_id for i in range(6)] == [
        0, 1, 0, 1, 0, 1,
    ]
    pool.remap(3)
    assert [pool.reactor_for(i).reactor_id for i in range(6)] == [
        0, 1, 2, 0, 1, 2,
    ]


def test_reactor_pool_remap_validates_count():
    from repro.spdk.reactor import ReactorPool
    from repro.config import SPDKConfig

    env = Environment()
    pool = ReactorPool(env, num_ssds=4, num_reactors=2, config=SPDKConfig())
    with pytest.raises(ConfigurationError):
        pool.remap(0)
    with pytest.raises(ConfigurationError):
        pool.remap(3)


def test_manager_set_active_reactors_rebinds_handles():
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    manager = CamManager(platform, num_cores=2)
    manager.set_active_reactors(1)
    assert manager.active_reactors == 1
    driver = manager.driver
    assert all(
        driver.handle(i).reactor.reactor_id == 0
        for i in range(platform.num_ssds)
    )
    manager.set_active_reactors(2)
    assert {
        driver.handle(i).reactor.reactor_id
        for i in range(platform.num_ssds)
    } == {0, 1}
    with pytest.raises(ConfigurationError):
        manager.set_active_reactors(3)


@pytest.mark.parametrize(
    "count", [2.5, True, "2", 0, 7],
    ids=["fractional", "boolean", "string", "zero", "past the pool"],
)
def test_set_active_reactors_rejects_a_bad_count_before_any_state_changes(
    count,
):
    """A bad count is refused with a typed error before the manager, the
    pool or a queue-pair handle moves, so failover keeps working."""
    platform = Platform(PlatformConfig(num_ssds=12), functional=False)
    manager = CamManager(platform)  # 6 reactors
    driver = manager.driver

    def owners():
        return [
            driver.handle(i).reactor.reactor_id
            for i in range(platform.num_ssds)
        ]

    manager.set_active_reactors(4)
    before = owners()
    with pytest.raises(ConfigurationError):
        manager.set_active_reactors(count)
    assert manager.active_reactors == driver.pool.active_count == 4
    assert owners() == before
    driver.fail_reactor(0)  # a later failover still re-homes
    assert 0 not in owners()
    manager.set_active_reactors(np.int64(2))
    assert manager.active_reactors == 2


def test_remapped_manager_still_matches_fanout():
    """Coalescing stays differential-identical after a remap."""

    def run(manager_class):
        platform = Platform(
            PlatformConfig(num_ssds=4), functional=False
        )
        manager = manager_class(platform, num_cores=2)
        manager.set_active_reactors(1)
        env = platform.env
        lbas = (np.arange(256, dtype=np.int64) * 5 + 3) % (1 << 18)
        io_time = env.run(
            manager.ring(
                BatchRequest(lbas=lbas, granularity=4096, is_write=False)
            )
        )
        return io_time, env.now, [
            tuple(s.read_latency._samples) for s in platform.ssds
        ]

    assert run(FanOutManager) == run(CamManager)


@pytest.mark.slow
@pytest.mark.parametrize("reliable", [False, True],
                         ids=["fail-fast", "reliable"])
def test_fig08_scale_fan_out_ends_at_the_golden_sim_end(reliable):
    """The per-request fan-out oracle, plain and with the reliability
    bundle, replays the pinned fig08-scale history (8 SSDs, 10 doorbell
    batches of 8192 x 4 KiB reads) that the coalesced walk is gated on
    in ``benchmarks/perf/run_bench.py``."""
    platform = Platform(PlatformConfig(num_ssds=8), functional=False)
    manager = FanOutManager(
        platform, reliability=Reliability(platform) if reliable else None,
    )
    env = platform.env
    for index in range(10):
        lbas = (np.arange(8192, dtype=np.int64) * 3 + index) % (1 << 20)
        env.run(manager.ring(
            BatchRequest(lbas=lbas, granularity=4096, is_write=False)
        ))
    assert env.now == GOLDEN["fig08_batch_sim_end"].value
