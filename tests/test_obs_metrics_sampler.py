"""MetricsSampler: sim-clock sampling, crash visibility, bit-identity.

The two load-bearing claims of ISSUE 5:

* the sampler keeps reporting through reactor crash/failover/revive
  (the gauges flip, the time series shows the transition), and
* telemetry is a pure observer — a run with the full stack attached
  produces the *bit-identical* simulated history (end time, completion
  order, retry count) as the same run without it.  ``events_processed``
  legitimately differs (sampler timer events); simulated time must not.
"""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.core.control import BatchRequest, CamManager
from repro.errors import ConfigurationError, DeviceError
from repro.hw.faults import FaultInjector
from repro.hw.platform import Platform
from repro.obs import NULL_METRICS, install_metrics, install_sampler
from repro.reliability import Reliability


def _manager(num_ssds=4, num_cores=2, injector=None):
    platform = Platform(
        PlatformConfig(num_ssds=num_ssds), functional=False,
        fault_injector=injector,
    )
    reliability = Reliability(platform)
    manager = CamManager(
        platform, num_cores=num_cores, reliability=reliability
    )
    return platform, manager, reliability


def _batch(requests=64, index=0):
    lbas = (np.arange(requests, dtype=np.int64) * 7 + index * 13) % (1 << 18)
    return BatchRequest(lbas=lbas, granularity=4096, is_write=False)


def test_sampler_validates_inputs():
    platform, manager, _ = _manager()
    with pytest.raises(ConfigurationError, match="recording"):
        install_sampler(NULL_METRICS, manager=manager)
    metrics = install_metrics(platform.env)
    with pytest.raises(ConfigurationError):
        install_sampler(metrics, manager=manager, interval=0.0)
    with pytest.raises(ConfigurationError):
        install_sampler(metrics, manager=manager, max_samples=0)


def test_sampler_records_time_series_and_busy_fractions():
    platform, manager, _ = _manager()
    env = platform.env
    metrics = install_metrics(env)
    sampler = install_sampler(metrics, manager=manager, interval=20e-6)
    seen = []
    sampler.listeners.append(lambda t, snap: seen.append(t))

    for index in range(3):
        env.run(manager.ring(_batch(index=index)))
    sampler.stop()
    time, snap = sampler.sample_now()

    assert sampler.samples_taken == len(sampler.history)
    assert len(sampler.history) >= 3
    assert seen  # listener fired on periodic samples
    # the mid-run samples saw busy reactors
    busy = sampler.series("reactor_busy_fraction{reactor=0}")
    assert any(value > 0.0 for _, value in busy)
    assert all(0.0 <= value <= 1.0 for _, value in busy)
    # pulled totals made it into the registry snapshot
    assert snap["spdk_requests_total"] == 3 * 64
    assert snap["ssd_sq_occupancy{ssd=0}"] == 0  # drained at the end
    assert sampler.latest() == (time, snap)


def test_manager_busy_fractions_window():
    platform, manager, _ = _manager()
    env = platform.env
    env.run(manager.ring(_batch(requests=256)))
    fractions = manager.reactor_busy_fractions()
    assert set(fractions) == {0, 1}
    assert all(0.0 < value <= 1.0 for value in fractions.values())
    # a second call over an idle window reads ~zero
    env.run(env.timeout(1e-3))
    idle = manager.reactor_busy_fractions()
    assert all(value == 0.0 for value in idle.values())


def test_sampler_reports_through_crash_failover_and_revive():
    injector = FaultInjector(seed=3)
    platform, manager, _ = _manager(injector=injector)
    env = platform.env
    driver = manager.driver
    metrics = install_metrics(env)
    sampler = install_sampler(metrics, manager=manager, interval=20e-6)

    env.run(manager.ring(_batch(index=0)))
    _, before = sampler.sample_now()
    assert before["reactor_crashed{reactor=0}"] == 0.0

    driver.fail_reactor(0)
    _, crashed = sampler.sample_now()
    assert crashed["reactor_crashed{reactor=0}"] == 1.0
    assert crashed["reactor_failovers_total{reactor=0}"] == 1.0

    # the survivor still serves traffic and the sampler still reads it
    env.run(manager.ring(_batch(index=1)))
    _, after = sampler.sample_now()
    assert after["spdk_requests_total"] == 2 * 64
    assert after["reactor_busy_fraction{reactor=1}"] >= 0.0

    driver.pool.reactors[0].revive()
    _, revived = sampler.sample_now()
    assert revived["reactor_crashed{reactor=0}"] == 0.0
    sampler.stop()


def _reliable_run(instrument: bool):
    """One fault-injected coalesced+reliability run; returns the full
    simulated history: (end_time, completion log, retries)."""
    injector = FaultInjector(error_rate=0.02, seed=7)
    platform, manager, reliability = _manager(injector=injector)
    env = platform.env
    sampler = None
    if instrument:
        metrics = install_metrics(env)
        sampler = install_sampler(
            metrics, manager=manager, interval=20e-6
        )
    completions = []

    def worker(worker_id):
        for index in range(3):
            batch = _batch(requests=32, index=worker_id * 3 + index)
            try:
                yield manager.ring(batch)
            except DeviceError as error:
                completions.append(
                    (worker_id, index, env.now, type(error).__name__)
                )
            else:
                completions.append((worker_id, index, env.now, "ok"))

    procs = [env.process(worker(w)) for w in range(4)]
    env.run(env.all_of(procs))
    if sampler is not None:
        sampler.stop()
    return env.now, completions, int(reliability.retries.total)


def test_telemetry_is_bit_identical_to_uninstrumented_run():
    plain_end, plain_log, plain_retries = _reliable_run(False)
    inst_end, inst_log, inst_retries = _reliable_run(True)
    assert plain_retries > 0  # the fault rate actually exercised retries
    # identical simulated history: end instant, per-batch completion
    # times and order, and the retry count
    assert inst_end == plain_end
    assert inst_log == plain_log
    assert inst_retries == plain_retries


def test_sampler_history_is_bounded():
    platform, manager, _ = _manager()
    env = platform.env
    metrics = install_metrics(env)
    sampler = install_sampler(
        metrics, manager=manager, interval=5e-6, max_samples=4
    )
    env.run(manager.ring(_batch(requests=256)))
    sampler.stop()
    assert len(sampler.history) == 4  # deque maxlen
    assert sampler.samples_taken > 4
