"""Admission control: bounded in-flight work and deterministic shedding.

The overload half of ISSUE 4: an :class:`AdmissionController` bounds the
in-flight requests/bytes a control plane carries, sheds the excess
synchronously with a typed :class:`~repro.errors.OverloadError`, and
drives degraded mode (smaller batch slices) when utilization or device
health says the backend is struggling.  The closed-loop test at the
bottom is the acceptance scenario: a 4x-oversubscribed burst sheds, and
the p99 latency of the *admitted* requests stays bounded.
"""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.core import CamContext
from repro.core.control import BatchRequest, CamManager
from repro.errors import (
    AllocationError,
    APIUsageError,
    ConfigurationError,
    OverloadError,
)
from repro.hw.platform import Platform
from repro.reliability import Reliability
from repro.reliability.admission import AdmissionController
from repro.reliability.health import HealthState
from repro.sim import Environment


def _controller(**kwargs):
    return AdmissionController(Environment(), **kwargs)


def test_admit_release_bookkeeping():
    ac = _controller(max_inflight_requests=8, max_inflight_bytes=1 << 20)
    ac.admit(4, 1024)
    assert ac.inflight_requests == 4
    assert ac.inflight_bytes == 1024
    assert ac.admitted_requests.total == 4
    ac.release(4, 1024)
    assert ac.inflight_requests == 0
    assert ac.inflight_bytes == 0


def test_request_bound_sheds_with_typed_error():
    ac = _controller(max_inflight_requests=8)
    ac.admit(8)
    with pytest.raises(OverloadError) as excinfo:
        ac.admit(1)
    assert excinfo.value.inflight_requests == 8
    assert excinfo.value.max_requests == 8
    assert ac.shed_requests.total == 1
    # shedding claims nothing: the bound still frees up on release
    ac.release(8)
    ac.admit(8)


def test_byte_bound_sheds_independently():
    ac = _controller(max_inflight_requests=1 << 20, max_inflight_bytes=4096)
    ac.admit(1, 4096)
    assert not ac.would_admit(1, 1)
    with pytest.raises(OverloadError):
        ac.admit(1, 1)


def test_utilization_tracks_tighter_bound():
    ac = _controller(max_inflight_requests=10, max_inflight_bytes=1000)
    ac.admit(1, 900)
    assert ac.utilization() == pytest.approx(0.9)


def test_degraded_past_high_water_shrinks_batches():
    ac = _controller(
        max_inflight_requests=10, degraded_batch_limit=4, high_water=0.5
    )
    assert ac.batch_limit() is None
    ac.admit(6)
    assert ac.degraded()
    assert ac.batch_limit() == 4
    ac.release(6)
    assert ac.batch_limit() is None


def test_open_breaker_forces_degraded_mode():
    class TrippedHealth:
        def snapshot(self):
            return {0: HealthState.TRIPPED.value}

    ac = _controller(health=TrippedHealth(), degraded_batch_limit=16)
    assert ac.degraded()
    assert ac.batch_limit() == 16


def test_no_degraded_limit_disables_slicing():
    ac = _controller(
        max_inflight_requests=10, degraded_batch_limit=None, high_water=0.5
    )
    ac.admit(9)
    assert ac.degraded()
    assert ac.batch_limit() is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_inflight_requests": 0},
        {"max_inflight_bytes": 0},
        {"degraded_batch_limit": 0},
        {"high_water": 0.0},
        {"high_water": 1.5},
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        _controller(**kwargs)


def test_manager_ring_sheds_synchronously():
    platform = Platform(PlatformConfig(num_ssds=2), functional=False)
    admission = AdmissionController(platform.env, max_inflight_requests=16)
    manager = CamManager(platform, admission=admission)
    lbas = np.arange(64, dtype=np.int64) * 3
    with pytest.raises(OverloadError):
        manager.ring(
            BatchRequest(lbas=lbas, granularity=4096, is_write=False)
        )
    # nothing was claimed and no simulated time passed
    assert admission.inflight_requests == 0
    assert admission.shed_requests.total == 64
    assert platform.env.now == 0.0


def test_manager_ring_rejects_negative_lba_before_admission():
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    admission = AdmissionController(platform.env, max_inflight_requests=64)
    manager = CamManager(platform, admission=admission)
    bad = BatchRequest(
        lbas=np.array([0, 8, -8, 16], dtype=np.int64),
        granularity=4096, is_write=False,
    )
    with pytest.raises(APIUsageError, match="negative LBA -8"):
        manager.ring(bad)
    # rejected before admission and before the doorbell was recorded
    assert admission.inflight_requests == 0
    assert admission.inflight_bytes == 0
    assert admission.admitted_requests.total == 0
    assert bad.done is None
    good = BatchRequest(
        lbas=np.arange(8, dtype=np.int64) * 8,
        granularity=4096, is_write=False,
    )
    assert platform.env.run(manager.ring(good)) > 0
    assert manager.batches_done.total == 1
    assert admission.inflight_requests == 0


@pytest.mark.parametrize("straddles", [False, True])
@pytest.mark.parametrize("functional", [False, True])
@pytest.mark.parametrize("reliable", [False, True])
def test_manager_ring_rejects_lba_past_capacity_before_admission(
    reliable, functional, straddles
):
    """A request running past its SSD's last block is rejected at
    ``ring``.  Let through, it raised out of ``env.run`` and never
    completed on a functional platform, timed out and marked a healthy
    SSD offline with a reliability bundle, and read as a success on a
    timing platform."""
    platform = Platform(PlatformConfig(num_ssds=2), functional=functional)
    ssd = platform.config.ssd
    total_blocks = 2 * ssd.capacity_bytes // ssd.block_size
    admission = AdmissionController(platform.env, max_inflight_requests=64)
    reliability = Reliability(platform) if reliable else None
    manager = CamManager(
        platform, admission=admission, reliability=reliability
    )
    # 8-block requests: SSD 1 holds local LBA capacity - 4 at global
    # LBA total - 4 (straddling its last block) and local LBA capacity
    # at global LBA total + 8 (wholly past it)
    bad_lba = total_blocks - 4 if straddles else total_blocks + 8
    bad = BatchRequest(
        lbas=np.array([0, bad_lba], dtype=np.int64),
        granularity=4096, is_write=False,
    )
    health = reliability.health.snapshot() if reliable else None
    with pytest.raises(APIUsageError, match="run past"):
        manager.ring(bad)
    assert bad.done is None
    assert admission.inflight_requests == 0
    assert admission.admitted_requests.total == 0
    if reliable:
        assert reliability.health.snapshot() == health
    # the last whole request on SSD 1 still fits
    good = BatchRequest(
        lbas=np.array([0, total_blocks - 8], dtype=np.int64),
        granularity=4096, is_write=False,
    )
    assert platform.env.run(manager.ring(good)) > 0
    assert manager.batches_done.total == 1
    assert admission.inflight_requests == 0
    if reliable:
        assert reliability.health.state(1) is HealthState.HEALTHY


#: LBA arrays that are not a non-empty 1-D array of integer values;
#: all but the empty one once got past an entry point, as an untyped
#: TypeError from ``ring`` or a cast to int64 that read LBA 1 for 1.5
_MALFORMED_LBAS = {
    "2-D": np.arange(4, dtype=np.int64).reshape(2, 2) * 8,
    "fractional list": [1.5, 8.0],
    "fractional array": np.array([1.5]),
    "integral floats": np.array([0.0, 8.0]),
    "booleans": np.array([True, False]),
    "ragged": [[0, 8], [16]],
    "empty": np.array([], dtype=np.int64),
}

#: integer lists and int32/int64 arrays stay accepted
_WELL_FORMED_LBAS = {
    "list": [0, 8, 16, 24],
    "int32": np.arange(4, dtype=np.int32) * 8,
    "int64": np.arange(4, dtype=np.int64) * 8,
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_LBAS))
def test_manager_ring_rejects_malformed_lba_arrays_before_admission(name):
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    admission = AdmissionController(platform.env, max_inflight_requests=64)
    manager = CamManager(platform, admission=admission)
    bad = BatchRequest(
        lbas=_MALFORMED_LBAS[name], granularity=4096, is_write=False,
    )
    with pytest.raises(APIUsageError, match="1-D integer array"):
        manager.ring(bad)
    assert bad.done is None
    assert admission.inflight_requests == 0
    assert admission.admitted_requests.total == 0
    for count, lbas in enumerate(_WELL_FORMED_LBAS.values(), 1):
        good = BatchRequest(lbas=lbas, granularity=4096, is_write=False)
        assert platform.env.run(manager.ring(good)) > 0
        assert manager.batches_done.total == count
    assert manager.driver.requests_done.total == 12
    assert admission.inflight_requests == 0


@pytest.mark.parametrize("is_write", [False, True])
@pytest.mark.parametrize("name", sorted(_MALFORMED_LBAS))
def test_device_api_rejects_malformed_lba_arrays_before_the_doorbell(
    name, is_write
):
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    env = platform.env
    admission = AdmissionController(env, max_inflight_requests=64)
    context = CamContext(platform, admission=admission)
    api = context.device_api()
    buffer = context.alloc(16 * 4096)
    initiate, synchronize = (
        (api.write_back, api.write_back_synchronize) if is_write
        else (api.prefetch, api.prefetch_synchronize)
    )

    def kernel():
        with pytest.raises(APIUsageError, match="1-D integer array"):
            yield from initiate(_MALFORMED_LBAS[name], buffer)
        # no doorbell time spent, nothing admitted
        assert env.now == 0.0
        assert admission.admitted_requests.total == 0
        for lbas in _WELL_FORMED_LBAS.values():
            yield from initiate(lbas, buffer)
            yield from synchronize()

    env.run(env.process(kernel()))
    assert context.manager.batches_done.total == len(_WELL_FORMED_LBAS)
    assert context.manager.driver.requests_done.total == 12
    assert admission.inflight_requests == 0


@pytest.mark.parametrize("sliced", [False, True])
@pytest.mark.parametrize("payload_count", [0, 3, 9])
def test_manager_ring_rejects_mismatched_payloads_before_admission(
    sliced, payload_count
):
    """A payload list shorter or longer than the batch is rejected at
    ``ring``; it never reaches the walk, which pairs requests with
    payloads and would drop the unmatched ones."""
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    # an 8-request batch fills the bound, so with a degraded limit the
    # batch would be walked in slices of 2
    admission = AdmissionController(
        platform.env, max_inflight_requests=8, high_water=0.5,
        degraded_batch_limit=2 if sliced else None,
    )
    manager = CamManager(platform, admission=admission)
    lbas = np.arange(8, dtype=np.int64) * 8
    bad = BatchRequest(
        lbas=lbas, granularity=4096, is_write=True,
        payloads=[bytes(4096)] * payload_count,
    )
    with pytest.raises(APIUsageError, match="payloads must match"):
        manager.ring(bad)
    assert admission.inflight_requests == 0
    assert admission.inflight_bytes == 0
    assert admission.admitted_requests.total == 0
    assert bad.done is None
    good = BatchRequest(
        lbas=lbas, granularity=4096, is_write=True,
        payloads=[bytes(4096)] * 8,
    )
    assert platform.env.run(manager.ring(good)) > 0
    assert manager.batches_done.total == 1
    assert manager.driver.requests_done.total == 8
    assert admission.inflight_requests == 0


def test_batch_raising_at_start_leaves_poller_alive():
    """A batch whose start raises (here: a write-back source buffer too
    small for its requests) surfaces the error from ``env.run`` and
    returns its admission claim; the poller serves the next batch."""
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    admission = AdmissionController(platform.env, max_inflight_requests=64)
    manager = CamManager(platform, admission=admission)
    env = platform.env
    small = platform.gpu.memory.alloc(4096)
    bad = BatchRequest(
        lbas=np.arange(4, dtype=np.int64) * 8,
        granularity=4096, is_write=True, dest=small,
    )
    manager.ring(bad)
    with pytest.raises(AllocationError):
        env.run()
    assert admission.inflight_requests == 0
    good = BatchRequest(
        lbas=np.arange(8, dtype=np.int64) * 8,
        granularity=4096, is_write=False,
    )
    assert env.run(manager.ring(good)) > 0
    assert manager.batches_done.total == 1


def test_malformed_walk_fails_its_batch_and_returns_admission():
    """A walk that finds its group mixing reactors with no remap (an
    SSD re-homed behind the driver's back) fails its batch as a dying
    handler process did: the error surfaces from ``env.run``, the
    admission claim goes back, ``done`` never fires, and the batch's
    other walk drains without completing it."""
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    admission = AdmissionController(platform.env, max_inflight_requests=64)
    manager = CamManager(platform, num_cores=2, admission=admission)
    env = platform.env
    handles = manager.driver._handles
    stripe = platform.stripe_blocks
    # SSDs 0 and 2 form reactor 0's group, SSD 1 reactor 1's
    assert handles[0].reactor is handles[2].reactor
    assert handles[1].reactor is not handles[0].reactor
    bad = BatchRequest(
        lbas=np.array([0, 2 * stripe, stripe], dtype=np.int64),
        granularity=4096, is_write=False,
    )
    done = manager.ring(bad)
    started = manager.config.poll_interval / 2 + manager.config.batch_setup_time
    env.run(until=started + manager.driver.config.per_request_cpu / 2)
    home = handles[2].reactor
    handles[2].reactor = handles[1].reactor
    with pytest.raises(ConfigurationError, match="mixes reactors"):
        env.run()
    assert admission.inflight_requests == 0
    handles[2].reactor = home
    env.run()
    assert not done.triggered
    assert manager.batches_done.total == 0
    good = BatchRequest(
        lbas=np.arange(8, dtype=np.int64) * stripe,
        granularity=4096, is_write=False,
    )
    assert env.run(manager.ring(good)) > 0
    assert manager.batches_done.total == 1
    assert admission.inflight_requests == 0


def test_overload_burst_sheds_and_p99_stays_bounded():
    """The acceptance scenario: 16 workers offer 512 requests at once
    against a 128-request bound (4x oversubscribed).  The excess sheds
    with :class:`OverloadError`; every admitted request terminates and
    the p99 batch latency stays bounded by the configured in-flight
    limit, not by the offered load.  (Measured here: 384 shed, admitted
    p99 ~0.12 ms — the numbers quoted in docs/RELIABILITY.md.)"""
    platform = Platform(PlatformConfig(num_ssds=4), functional=False)
    reliability = Reliability(platform)
    admission = AdmissionController(
        platform.env, max_inflight_requests=128, health=reliability.health
    )
    manager = CamManager(
        platform, num_cores=2, reliability=reliability, admission=admission
    )
    env = platform.env
    latencies = []
    shed = [0]

    def worker(index):
        lbas = (np.arange(32, dtype=np.int64) * 5 + index) % (1 << 16)
        start = env.now
        try:
            done = manager.ring(
                BatchRequest(lbas=lbas, granularity=4096, is_write=False)
            )
        except OverloadError:
            shed[0] += 32
            return
        yield done
        latencies.append(env.now - start)

    for index in range(16):
        env.process(worker(index))
    env.run()

    assert shed[0] == 384
    assert admission.shed_requests.total == 384
    assert len(latencies) == 4
    assert manager.requests_done.total == 128
    # every admitted request terminated and returned its capacity
    assert admission.inflight_requests == 0
    p99 = sorted(latencies)[int(0.99 * (len(latencies) - 1))]
    assert p99 < 1e-3, f"admitted p99 {p99 * 1e3:.2f} ms escaped its bound"
