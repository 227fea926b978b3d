"""Reactor fault tolerance: crashes, stalls, failover and re-homing.

ISSUE 4's second tentpole: a reactor is no longer an implicit
single-point-of-failure.  :meth:`SpdkDriver.fail_reactor` re-homes the
dead reactor's SSDs onto survivors and rescues its queued charges;
:class:`~repro.spdk.reactor.ReactorSupervisor` turns injected stalls and
hard crashes into that failover automatically; a revived reactor is
re-balanced back in.  The hypothesis property at the bottom pins the
core invariant: the SSD -> reactor assignment stays a partition over
alive reactors across arbitrary crash/recover cycles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PlatformConfig, SPDKConfig
from repro.core.control import BatchRequest, CamManager
from repro.errors import ReactorOfflineError
from repro.hw.faults import FaultInjector
from repro.hw.platform import Platform
from repro.reliability import Reliability
from repro.sim import Environment
from repro.spdk.driver import SpdkDriver
from repro.spdk.reactor import ReactorPool


def _manager(num_ssds=4, num_cores=2, injector=None):
    platform = Platform(
        PlatformConfig(num_ssds=num_ssds), functional=False,
        fault_injector=injector,
    )
    reliability = Reliability(platform)
    manager = CamManager(
        platform, num_cores=num_cores, reliability=reliability
    )
    return platform, manager


def _batch(requests=128, index=0):
    lbas = (np.arange(requests, dtype=np.int64) * 7 + index * 13) % (1 << 18)
    return BatchRequest(lbas=lbas, granularity=4096, is_write=False)


def test_fail_reactor_rehomes_every_ssd():
    platform, manager = _manager()
    driver = manager.driver
    assert {h.reactor.reactor_id for h in driver._handles} == {0, 1}
    driver.fail_reactor(0)
    assert driver.pool.reactors[0].crashed
    survivors = {h.reactor.reactor_id for h in driver._handles}
    assert survivors == {1}
    # every SSD still has exactly one owner, and it is alive
    assert len(driver.pool._assignment) == platform.num_ssds
    assert set(driver.pool._assignment) == {1}


def test_failover_mid_batch_completes_without_app_errors():
    platform, manager = _manager()
    env = platform.env

    def crash_then_heal():
        yield env.timeout(50e-6)
        manager.driver.fail_reactor(0)

    env.process(crash_then_heal())
    # the batch-done event fails with a typed DeviceError if any request
    # could not be rescued; a clean return means zero app-visible errors
    io_time = env.run(manager.ring(_batch()))
    assert io_time > 0
    assert manager.requests_done.total == 128


def test_supervisor_turns_injected_crash_into_failover():
    injector = FaultInjector(seed=3)
    injector.crash_reactor(0, at=40e-6)
    platform, manager = _manager(injector=injector)
    supervisor = manager.driver.supervise(check_interval=1e-4)
    io_time = platform.env.run(manager.ring(_batch()))
    assert io_time > 0
    assert injector.reactor_faults_delivered == 1
    assert supervisor.failovers.total >= 1
    assert manager.requests_done.total == 128
    supervisor.stop()


def test_supervisor_detects_stall_and_fails_over():
    injector = FaultInjector(seed=3)
    injector.stall_reactor(0, start=20e-6, duration=50e-3)
    platform, manager = _manager(injector=injector)
    supervisor = manager.driver.supervise(
        check_interval=1e-4, stall_threshold=5e-4
    )
    # batch 1's coalesced group already holds the reactor serial, so the
    # stall parks behind it; batch 2 then queues behind the stall and
    # only the supervisor's detection + failover can rescue it
    platform.env.run(manager.ring(_batch()))
    io_time = platform.env.run(manager.ring(_batch(index=1)))
    assert io_time > 0
    assert supervisor.stalls_detected.total >= 1
    assert supervisor.failovers.total >= 1
    # detection + failover rescue the batch long before the 50 ms stall
    # would have drained on its own
    assert platform.env.now < 10e-3
    assert manager.requests_done.total == 256
    supervisor.stop()


def test_revive_rebalances_ssds_back():
    platform, manager = _manager()
    driver = manager.driver
    driver.fail_reactor(0)
    assert set(driver.pool._assignment) == {1}
    driver.revive_reactor(0)
    assert not driver.pool.reactors[0].crashed
    assert set(driver.pool._assignment) == {0, 1}


def test_all_reactors_dead_raises_typed_error():
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    driver = SpdkDriver(platform, num_reactors=2)
    driver.fail_reactor(0)
    driver.fail_reactor(1)
    with pytest.raises(ReactorOfflineError):
        platform.env.run(platform.env.process(driver.io(0, 4096)))


# -- satellite (d): the partition property ---------------------------------

@given(
    num_ssds=st.integers(min_value=1, max_value=12),
    num_reactors=st.integers(min_value=1, max_value=6),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["crash", "revive"]),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=30,
    ),
)
@settings(max_examples=60, deadline=None)
def test_remap_keeps_assignment_a_partition(num_ssds, num_reactors, ops):
    """Across arbitrary crash/recover cycles, ``remap()`` maps every SSD
    to exactly one alive reactor, spread round-robin (counts within 1),
    and an all-dead pool raises instead of mapping to a corpse."""
    env = Environment()
    pool = ReactorPool(env, num_ssds, num_reactors, SPDKConfig())
    for op, index in ops:
        reactor = pool.reactors[index % num_reactors]
        if op == "crash":
            reactor.crash()
        else:
            reactor.revive()
        alive = {r.reactor_id for r in pool.alive_reactors()}
        if not alive:
            with pytest.raises(ReactorOfflineError):
                pool.remap()
            continue
        pool.remap()
        assignment = pool._assignment
        assert len(assignment) == num_ssds
        assert set(assignment) <= alive
        counts = [assignment.count(rid) for rid in sorted(set(assignment))]
        assert max(counts) - min(counts) <= 1


def test_a_failed_resize_of_a_dead_pool_keeps_the_window():
    """Resizing a pool whose every reactor crashed raises and changes
    nothing: the window stays the one the SSDs sit in, so the revived
    reactors share the SSDs over that window."""
    platform = Platform(PlatformConfig(num_ssds=12), functional=False)
    manager = CamManager(platform, num_cores=6)
    driver = manager.driver
    manager.set_active_reactors(4)
    for reactor_id in range(6):
        driver.fail_reactor(reactor_id)
    owners = [handle.reactor.reactor_id for handle in driver._handles]
    epoch = driver.resize_epoch

    with pytest.raises(ReactorOfflineError):
        manager.set_active_reactors(2)

    assert manager.active_reactors == 4
    assert [h.reactor.reactor_id for h in driver._handles] == owners
    assert driver.resize_epoch == epoch
    driver.revive_reactor(3)
    driver.revive_reactor(1)
    assert {h.reactor.reactor_id for h in driver._handles} == {1, 3}
