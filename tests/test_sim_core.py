"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim import AllOf, AnyOf, Environment, ReservedTimeline


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(1.5)
        return env.now

    process = env.process(proc())
    result = env.run(process)
    assert result == pytest.approx(1.5)
    assert env.now == pytest.approx(1.5)


def test_timeout_rejects_negative_delay():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_processes_interleave_deterministically():
    env = Environment()
    log = []

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((name, env.now))

    env.process(worker("a", 2.0))
    env.process(worker("b", 1.0))
    env.process(worker("c", 1.0))
    env.run()
    assert log == [("b", 1.0), ("c", 1.0), ("a", 2.0)]


def test_process_return_value_propagates():
    env = Environment()

    def inner():
        yield env.timeout(1.0)
        return 42

    def outer():
        value = yield env.process(inner())
        return value + 1

    assert env.run(env.process(outer())) == 43


def test_event_succeed_carries_value():
    env = Environment()
    event = env.event()

    def waiter():
        value = yield event
        return value

    def trigger():
        yield env.timeout(3.0)
        event.succeed("payload")

    process = env.process(waiter())
    env.process(trigger())
    assert env.run(process) == "payload"
    assert env.now == pytest.approx(3.0)


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_failed_event_raises_in_waiter():
    env = Environment()
    event = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield event
        return "handled"

    def trigger():
        yield env.timeout(1.0)
        event.fail(ValueError("boom"))

    process = env.process(waiter())
    env.process(trigger())
    assert env.run(process) == "handled"


def test_unhandled_failure_surfaces_at_run():
    env = Environment()

    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("kaboom")

    env.process(crasher())
    with pytest.raises(RuntimeError, match="kaboom"):
        env.run()


def test_run_until_time_stops_exactly():
    env = Environment()
    log = []

    def ticker():
        while True:
            yield env.timeout(1.0)
            log.append(env.now)

    env.process(ticker())
    env.run(until=3.5)
    assert log == [1.0, 2.0, 3.0]
    assert env.now == pytest.approx(3.5)


def test_run_into_past_rejected():
    env = Environment()

    def proc():
        yield env.timeout(5.0)

    env.process(proc())
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="one")
        t2 = env.timeout(2.0, value="two")
        results = yield AllOf(env, [t1, t2])
        return sorted(results.values())

    process = env.process(proc())
    assert env.run(process) == ["one", "two"]
    assert env.now == pytest.approx(2.0)


def test_any_of_resumes_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(10.0, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return list(results.values())

    process = env.process(proc())
    assert env.run(process) == ["fast"]
    assert env.now == pytest.approx(1.0)


def test_all_of_empty_triggers_immediately():
    env = Environment()

    def proc():
        result = yield AllOf(env, [])
        return result

    assert env.run(env.process(proc())) == {}


def test_interrupt_delivers_cause():
    env = Environment()
    observed = {}

    def sleeper():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt as interrupt:
            observed["cause"] = interrupt.cause
            observed["time"] = env.now
        return "done"

    def interrupter(victim):
        yield env.timeout(2.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper())
    env.process(interrupter(victim))
    assert env.run(victim) == "done"
    assert observed == {"cause": "wake up", "time": 2.0}


def test_interrupting_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    process = env.process(quick())
    env.run(process)
    with pytest.raises(SimulationError):
        process.interrupt()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    process = env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run(process)


def test_run_until_event_value():
    env = Environment()
    event = env.event()

    def trigger():
        yield env.timeout(4.0)
        event.succeed(99)

    env.process(trigger())
    assert env.run(until=event) == 99
    assert env.now == pytest.approx(4.0)


def test_waiting_on_already_processed_event():
    env = Environment()
    timeout = env.timeout(1.0, value="v")

    def late_waiter():
        yield env.timeout(2.0)
        value = yield timeout  # long since processed
        return value

    process = env.process(late_waiter())
    assert env.run(process) == "v"


# -- reserved heap keys -------------------------------------------------


class _Logged(ReservedTimeline):
    __slots__ = ("log",)

    def __init__(self, env, log):
        super().__init__(env)
        self.log = log

    def fire(self, index):
        self.log.append(("entry", index, self.env.now))


def _tie_log(reserved):
    """Four entries due at 1, 2, 2 and 3 s, and two processes whose
    timeouts fall on the same instants, one started before the entries
    and one after.  ``reserved`` keeps the entries on one
    :class:`ReservedTimeline`; otherwise each is a process started at
    run start, parked on a ``Timeout`` of its own."""
    env = Environment()
    log = []
    times = [1.0, 2.0, 2.0, 3.0]

    def noise(name, delays):
        for delay in delays:
            yield env.timeout(delay)
            log.append((name, env.now))

    def entry(index, time):
        yield env.timeout(time)
        log.append(("entry", index, env.now))

    env.process(noise("before", [2.0, 1.0]))
    if reserved:
        _Logged(env, log).reserve_at_start(times)
    else:
        for index, time in enumerate(times):
            env.process(entry(index, time))
    env.process(noise("after", [1.0, 1.0, 1.0]))
    env.run()
    return log, env.now


def test_reserved_entries_pop_where_their_own_timeouts_would():
    log, now = _tie_log(reserved=True)
    assert (log, now) == _tie_log(reserved=False)
    assert [item[0] for item in log] == [
        "entry", "after",  # 1 s
        "before", "entry", "entry", "after",  # 2 s
        "entry", "before", "after",  # 3 s: the entry's key is older
    ]


def test_reserve_keeps_the_key_of_the_moment_it_was_called():
    """Entries reserved one at a time while time runs (a watchdog
    arming deadlines) pop where a ``Timeout`` created then would."""
    def run(reserved):
        env = Environment()
        log = []
        timeline = _Logged(env, log)

        def arm():
            for index in range(4):
                if reserved:
                    timeline.reserve(env.now + 1.5)
                else:
                    env.timeout(1.5).callbacks.append(
                        lambda _, index=index: log.append(
                            ("entry", index, env.now)
                        )
                    )
                yield env.timeout(0.5)
                log.append(("armer", env.now))

        env.process(arm())
        env.run()
        return log

    log = run(reserved=True)
    assert log == run(reserved=False)
    assert len(log) == 8
