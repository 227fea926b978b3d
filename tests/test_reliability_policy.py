"""Unit tests for the reliability primitives: policy, health, watchdog."""

import gc

import pytest

from repro.errors import (
    ConfigurationError,
    DeviceError,
    DeviceOfflineError,
    DeviceTimeoutError,
)
from repro.hw.faults import FaultInjector
from repro.reliability import (
    CompletionWatchdog,
    HealthState,
    HealthTracker,
    RetryPolicy,
)
from repro.sim.core import AnyOf, Environment


# -- RetryPolicy ---------------------------------------------------------
def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(
        base_delay=10e-6, backoff_factor=2.0, max_delay=50e-6,
        jitter_fraction=0.0,
    )
    assert policy.backoff(1) == pytest.approx(10e-6)
    assert policy.backoff(2) == pytest.approx(20e-6)
    assert policy.backoff(3) == pytest.approx(40e-6)
    # capped at max_delay from attempt 4 on
    assert policy.backoff(4) == pytest.approx(50e-6)
    assert policy.backoff(9) == pytest.approx(50e-6)


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(jitter_fraction=0.25)
    first = policy.backoff(2, ssd_id=3, lba=100, is_write=False)
    again = policy.backoff(2, ssd_id=3, lba=100, is_write=False)
    assert first == again  # same key -> same jitter, replays identically
    other = policy.backoff(2, ssd_id=3, lba=101, is_write=False)
    assert other != first  # different key -> different jitter
    step = policy.backoff(2, ssd_id=0, lba=0, is_write=False)
    base = min(policy.max_delay,
               policy.base_delay * policy.backoff_factor)
    assert base <= step <= base * 1.25


def test_per_op_type_attempt_caps_and_budgets():
    policy = RetryPolicy(
        max_attempts_read=4, max_attempts_write=2,
        retry_budget_read=1e-3, retry_budget_write=2e-3,
    )
    assert policy.max_attempts(is_write=False) == 4
    assert policy.max_attempts(is_write=True) == 2
    assert policy.should_retry(3, 0.0, is_write=False)
    assert not policy.should_retry(4, 0.0, is_write=False)
    assert not policy.should_retry(2, 0.0, is_write=True)
    # the budget ends retries even below the attempt cap
    assert not policy.should_retry(1, 1e-3, is_write=False)
    assert policy.should_retry(1, 1.5e-3, is_write=True)


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts_read=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(base_delay=1e-3, max_delay=1e-6)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter_fraction=2.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy().backoff(0)


# -- HealthTracker -------------------------------------------------------
def test_health_degrades_then_trips():
    env = Environment()
    tracker = HealthTracker(env, 2, failure_threshold=3, degraded_after=2)
    assert tracker.state(0) is HealthState.HEALTHY
    tracker.record_failure(0)
    assert tracker.state(0) is HealthState.HEALTHY
    tracker.record_failure(0)
    assert tracker.state(0) is HealthState.DEGRADED
    assert tracker.allow(0)  # degraded still admits requests
    tracker.record_failure(0)
    assert tracker.state(0) is HealthState.TRIPPED
    assert not tracker.allow(0)
    assert tracker.breaker_trips.total == 1
    # the other device is unaffected
    assert tracker.state(1) is HealthState.HEALTHY


def test_success_resets_consecutive_failures():
    env = Environment()
    tracker = HealthTracker(env, 1, failure_threshold=3)
    tracker.record_failure(0)
    tracker.record_failure(0)
    tracker.record_success(0)
    assert tracker.state(0) is HealthState.HEALTHY
    tracker.record_failure(0)
    tracker.record_failure(0)
    assert tracker.state(0) is not HealthState.TRIPPED


def test_breaker_half_open_trial_closes_or_retrips():
    env = Environment()
    tracker = HealthTracker(
        env, 1, failure_threshold=1, degraded_after=1,
        breaker_cooldown=1e-3,
    )
    tracker.record_failure(0)
    assert tracker.state(0) is HealthState.TRIPPED
    assert not tracker.allow(0)  # cooldown running
    env.run(until=2e-3)
    assert tracker.allow(0)      # half-open: one trial admitted
    assert not tracker.allow(0)  # ...but only one
    tracker.record_failure(0)    # trial failed: re-trip
    assert tracker.state(0) is HealthState.TRIPPED
    assert tracker.breaker_trips.total == 2
    env.run(until=4e-3)
    assert tracker.allow(0)
    tracker.record_success(0)    # trial succeeded: breaker closes
    assert tracker.state(0) is HealthState.HEALTHY
    assert tracker.breaker_resets.total == 1
    assert tracker.allow(0)


def test_mark_offline_counts_as_trip():
    env = Environment()
    tracker = HealthTracker(env, 2)
    tracker.mark_offline(1)
    assert tracker.state(1) is HealthState.OFFLINE
    assert not tracker.allow(1)
    assert tracker.breaker_trips.total == 1
    assert tracker.snapshot() == {0: "healthy", 1: "offline"}


def test_tracker_validation():
    env = Environment()
    with pytest.raises(ConfigurationError):
        HealthTracker(env, 0)
    with pytest.raises(ConfigurationError):
        HealthTracker(env, 1, failure_threshold=2, degraded_after=3)


# -- CompletionWatchdog --------------------------------------------------
def test_watchdog_passes_through_timely_completion():
    env = Environment()
    watchdog = CompletionWatchdog(env, timeout=1e-3)
    done = env.event()

    def completer():
        yield env.timeout(1e-4)
        done.succeed("value")

    def waiter():
        value = yield from watchdog.guard(done, description="test")
        return value

    env.process(completer())
    assert env.run(env.process(waiter())) == "value"
    assert watchdog.timeouts_fired == 0


def test_watchdog_raises_typed_timeout_at_deadline():
    env = Environment()
    watchdog = CompletionWatchdog(env, timeout=1e-3)
    done = env.event()  # never fires

    def waiter():
        yield from watchdog.guard(done, ssd_ids=(3,), description="test")

    with pytest.raises(DeviceTimeoutError, match="test"):
        env.run(env.process(waiter()))
    assert env.now == pytest.approx(1e-3)
    assert watchdog.timeouts_fired == 1


def test_watchdog_deadline_scales_with_payload():
    env = Environment()
    watchdog = CompletionWatchdog(env, timeout=1e-3, per_byte=1e-9)
    assert watchdog.deadline(0) == pytest.approx(1e-3)
    assert watchdog.deadline(10_000_000) == pytest.approx(11e-3)


def test_watchdog_classifies_offline_device():
    env = Environment()
    injector = FaultInjector()
    injector.set_offline(2)
    watchdog = CompletionWatchdog(env, timeout=1e-3)
    done = env.event()

    def waiter():
        yield from watchdog.guard(
            done, ssd_ids=(2,), fault_injector=injector,
            description="test",
        )

    with pytest.raises(DeviceOfflineError) as excinfo:
        env.run(env.process(waiter()))
    assert excinfo.value.ssd_id == 2
    # the offline error is also a plain timeout and a DeviceError
    assert isinstance(excinfo.value, DeviceTimeoutError)
    assert isinstance(excinfo.value, DeviceError)
    assert isinstance(excinfo.value, TimeoutError)


def test_watchdog_reraises_completion_failure():
    env = Environment()
    watchdog = CompletionWatchdog(env, timeout=1e-3)
    done = env.event()

    def failer():
        yield env.timeout(1e-5)
        done.fail(DeviceError("boom"))

    def waiter():
        yield from watchdog.guard(done, description="test")

    env.process(failer())
    with pytest.raises(DeviceError, match="boom"):
        env.run(env.process(waiter()))


@pytest.mark.parametrize("fails", [False, True])
def test_watchdog_lets_go_of_a_settled_race(fails):
    """Once the guarded event wins, the pending deadline still pops at
    its key but references nothing: not the race, the waiter or its
    value."""
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        watchdog = CompletionWatchdog(env, timeout=1e-3)
        done = env.event()

        def completer():
            yield env.timeout(1e-5)
            if fails:
                done.fail(DeviceError("boom"))
            else:
                done.succeed("value")

        def waiter():
            try:
                return (yield from watchdog.guard(done, description="test"))
            except DeviceError as error:
                return str(error)

        env.process(completer())
        outcome = env.run(env.process(waiter()))
        assert outcome == ("boom" if fails else "value")
        [(expiry, _, _, timer)] = env._heap
        assert expiry == pytest.approx(1e-3)
        assert timer.callbacks == []
        assert not [obj for obj in gc.get_objects() if isinstance(obj, AnyOf)]
    finally:
        gc.enable()
    env.run()
    assert env.now == pytest.approx(1e-3)
    assert watchdog.timeouts_fired == 0


def test_watchdog_validation():
    env = Environment()
    with pytest.raises(ConfigurationError):
        CompletionWatchdog(env, timeout=0.0)
    with pytest.raises(ConfigurationError):
        CompletionWatchdog(env, per_byte=-1.0)
