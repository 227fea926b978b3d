"""Failure-injection tests: device errors propagate through every plane."""

import numpy as np
import pytest

from repro.backends import make_backend
from repro.config import PlatformConfig
from repro.core import CamContext
from repro.errors import ConfigurationError, DeviceError
from repro.hw.faults import (
    STATUS_MEDIA_ERROR,
    STATUS_WRITE_FAULT,
    FaultInjector,
)
from repro.hw.nvme import SQE, NVMeOpcode
from repro.hw.platform import Platform
from repro.units import KiB


def _platform(num_ssds=2, injector=None, functional=False):
    return Platform(
        PlatformConfig(num_ssds=num_ssds),
        functional=functional,
        fault_injector=injector,
    )


def test_injector_one_shot_semantics():
    injector = FaultInjector()
    injector.inject_lba(0, 100)
    assert injector.check(0, 100, 1, False) == STATUS_MEDIA_ERROR
    # consumed: second attempt succeeds
    assert injector.check(0, 100, 1, False) == 0
    assert injector.faults_delivered == 1


def test_injector_range_overlap_detected():
    injector = FaultInjector()
    injector.inject_lba(0, 10)
    # a command covering blocks [8, 16) hits the planted block
    assert injector.check(0, 8, 8, True) == STATUS_WRITE_FAULT


def test_injector_scoped_to_ssd():
    injector = FaultInjector()
    injector.inject_lba(1, 5)
    assert injector.check(0, 5, 1, False) == 0
    assert injector.check(1, 5, 1, False) == STATUS_MEDIA_ERROR


def test_injector_rate_validation():
    with pytest.raises(ConfigurationError):
        FaultInjector(error_rate=1.5)


def test_injector_probabilistic_rate():
    injector = FaultInjector(error_rate=0.5, seed=9)
    outcomes = [injector.check(0, i, 1, False) != 0 for i in range(400)]
    assert 0.35 < np.mean(outcomes) < 0.65


def test_device_posts_error_cqe():
    injector = FaultInjector()
    injector.inject_lba(0, 0)
    platform = _platform(injector=injector)
    ssd = platform.ssds[0]
    qp = ssd.create_queue_pair()

    def proc():
        yield qp.submit(SQE(NVMeOpcode.READ, lba=0, num_blocks=8))
        cqe = yield qp.pop_completion()
        return cqe

    cqe = platform.env.run(platform.env.process(proc()))
    assert not cqe.ok
    assert cqe.status == STATUS_MEDIA_ERROR
    assert ssd.faults_reported == 1


def test_flush_command_completes():
    platform = _platform()
    qp = platform.ssds[0].create_queue_pair()

    def proc():
        yield qp.submit(SQE(NVMeOpcode.FLUSH, lba=0, num_blocks=0))
        cqe = yield qp.pop_completion()
        return cqe

    assert platform.env.run(platform.env.process(proc())).ok


def test_offline_device_swallows_flush_like_a_read():
    """An SSD off the bus answers no opcode: a FLUSH gets no CQE either."""
    injector = FaultInjector()
    platform = _platform(injector=injector)
    ssd = platform.ssds[0]
    qp = ssd.create_queue_pair()
    injector.set_offline(0)
    for opcode in (NVMeOpcode.FLUSH, NVMeOpcode.READ):
        qp.try_submit(SQE(opcode, lba=0, num_blocks=8))
    platform.env.run(until=1e-3)
    assert qp.cq_occupancy == 0
    assert qp.inflight == 2
    assert injector.offline_drops == 2
    assert ssd.faults_reported == 2


def test_posix_raises_like_failed_pread():
    injector = FaultInjector()
    injector.inject_lba(0, 0)
    platform = _platform(injector=injector)
    backend = make_backend("posix", platform)

    def proc():
        yield from backend.io(0, 4096)

    with pytest.raises(DeviceError, match="status"):
        platform.env.run(platform.env.process(proc()))


def test_spdk_returns_error_cqe():
    injector = FaultInjector()
    injector.inject_lba(0, 0)
    platform = _platform(injector=injector)
    backend = make_backend("spdk", platform, to_gpu=False)

    def proc():
        cqe = yield from backend.io(0, 4096)
        return cqe

    cqe = platform.env.run(platform.env.process(proc()))
    assert not cqe.ok


def test_cam_synchronize_raises_on_failed_batch():
    injector = FaultInjector()
    platform = _platform(num_ssds=2, injector=injector)
    context = CamContext(platform)
    buffer = context.alloc(64 * KiB)
    api = context.device_api()
    lbas = np.arange(8, dtype=np.int64) * 8
    # plant a fault on one request of the batch (global lba 16 -> stripe 2
    # -> ssd 0, local lba 8)
    ssd, local = platform.ssd_for_lba(16)
    injector.inject_lba(ssd.ssd_id, local)

    def kernel():
        yield from api.prefetch(lbas, buffer, 4096)
        with pytest.raises(DeviceError, match="1 of 8 requests failed"):
            yield from api.prefetch_synchronize()

    platform.env.run(platform.env.process(kernel()))


def test_cam_survives_failed_batch_and_continues():
    """After a failed batch the context keeps working for later batches."""
    injector = FaultInjector()
    platform = _platform(num_ssds=2, injector=injector)
    context = CamContext(platform)
    buffer = context.alloc(64 * KiB)
    api = context.device_api()
    lbas = np.arange(4, dtype=np.int64) * 8
    ssd, local = platform.ssd_for_lba(0)
    injector.inject_lba(ssd.ssd_id, local)

    def kernel():
        yield from api.prefetch(lbas, buffer, 4096)
        with pytest.raises(DeviceError):
            yield from api.prefetch_synchronize()
        # retry: the fault was one-shot, this batch succeeds
        yield from api.prefetch(lbas, buffer, 4096)
        yield from api.prefetch_synchronize()

    platform.env.run(platform.env.process(kernel()))
    assert context.manager.batches_done.total == 2


def test_degrade_window_is_start_inclusive_end_exclusive():
    injector = FaultInjector()
    injector.degrade(0, factor=3.0, start=1.0, duration=2.0)
    assert injector.latency_factor(0, 0.999) == 1.0
    assert injector.latency_factor(0, 1.0) == 3.0
    assert injector.latency_factor(0, 2.999) == 3.0
    assert injector.latency_factor(0, 3.0) == 1.0
    # scoped to the SSD, and overlapping windows stack
    assert injector.latency_factor(1, 1.5) == 1.0
    injector.degrade(0, factor=2.0, start=2.0, duration=2.0)
    assert injector.latency_factor(0, 2.5) == 6.0


def test_repair_lba_clears_persistent_faults():
    injector = FaultInjector()
    injector.inject_lba(0, 42, persistent=True)
    # persistent: the fault survives being hit
    assert injector.check(0, 42, 1, False) == STATUS_MEDIA_ERROR
    assert injector.check(0, 42, 1, False) == STATUS_MEDIA_ERROR
    injector.repair_lba(0, 42)
    assert injector.check(0, 42, 1, False) == 0
    # repair also cancels a planted one-shot before it fires
    injector.inject_lba(0, 43)
    injector.repair_lba(0, 43)
    assert injector.check(0, 43, 1, False) == 0


def test_offline_revive_waits_out_the_open_breaker():
    """Reviving the device does not instantly close its breaker: the
    cooldown still applies, then one half-open trial re-admits it."""
    from repro.reliability.health import HealthState, HealthTracker
    from repro.sim.core import Environment

    env = Environment()
    injector = FaultInjector()
    health = HealthTracker(env, num_ssds=1)

    injector.set_offline(0)
    assert injector.is_offline(0)
    health.mark_offline(0)
    assert not health.allow(0)

    injector.set_offline(0, False)
    assert not injector.is_offline(0)
    # the breaker stays open until the cooldown elapses
    assert not health.allow(0)
    env.run(env.timeout(health.breaker_cooldown))
    # half-open: exactly one trial goes through, a second is refused
    assert health.allow(0)
    assert not health.allow(0)
    health.record_success(0)
    assert health.state(0) is HealthState.HEALTHY
    assert health.allow(0)


def test_fault_free_runs_unaffected_by_injector_presence():
    injector = FaultInjector()  # nothing planted, rate 0
    platform = _platform(injector=injector)
    backend = make_backend("spdk", platform, to_gpu=False)

    def proc():
        cqe = yield from backend.io(0, 4096)
        return cqe

    assert platform.env.run(platform.env.process(proc())).ok
    assert injector.faults_delivered == 0
