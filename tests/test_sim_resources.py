"""Unit tests for resources, stores and containers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Container, Environment, PriorityResource, Resource, Store


def test_resource_serializes_at_capacity_one():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(name):
        with resource.request() as req:
            yield req
            log.append((name, "in", env.now))
            yield env.timeout(1.0)
        log.append((name, "out", env.now))

    env.process(user("a"))
    env.process(user("b"))
    env.run()
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 1.0),
        ("b", "in", 1.0),
        ("b", "out", 2.0),
    ]


def test_resource_capacity_allows_parallelism():
    env = Environment()
    resource = Resource(env, capacity=3)
    finished = []

    def user(name):
        with resource.request() as req:
            yield req
            yield env.timeout(1.0)
        finished.append((name, env.now))

    for name in "abc":
        env.process(user(name))
    env.run()
    assert all(t == 1.0 for _, t in finished)


def test_resource_rejects_bad_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(name, arrival):
        yield env.timeout(arrival)
        with resource.request() as req:
            yield req
            order.append(name)
            yield env.timeout(10.0)

    env.process(user("first", 0.0))
    env.process(user("second", 1.0))
    env.process(user("third", 2.0))
    env.run(until=100.0)
    assert order == ["first", "second", "third"]


def test_resource_acquire_queues_records_with_requests():
    """A callback-driven record holds a slot itself and queues FIFO
    behind (and ahead of) ordinary requests."""
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []
    first, second = env.event(), env.event()
    assert resource.acquire(first)
    holder = resource.request()
    assert not resource.acquire(second)
    second.callbacks.append(lambda event: log.append(("second", env.now)))
    holder.callbacks.append(lambda event: log.append(("request", env.now)))
    resource.release(first)
    env.run()
    assert log == [("request", 0.0)]
    resource.release(holder)
    env.run()
    assert log == [("request", 0.0), ("second", 0.0)]
    assert resource.count == 1 and resource.queued == 0
    with pytest.raises(SimulationError):
        PriorityResource(env).acquire(env.event())


def test_priority_resource_orders_waiters():
    env = Environment()
    resource = PriorityResource(env, capacity=1)
    order = []

    def holder():
        with resource.request(priority=0) as req:
            yield req
            yield env.timeout(5.0)

    def user(name, priority):
        yield env.timeout(1.0)  # arrive while held
        with resource.request(priority=priority) as req:
            yield req
            order.append(name)

    env.process(holder())
    env.process(user("low", priority=10))
    env.process(user("high", priority=1))
    env.run()
    assert order == ["high", "low"]


def test_store_fifo_put_get():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in range(3):
            yield store.put(item)
            yield env.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append((item, env.now))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [item for item, _ in received] == [0, 1, 2]


def test_store_capacity_backpressures_producer():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        for item in range(3):
            yield store.put(item)
            times.append(env.now)

    def consumer():
        for _ in range(3):
            yield env.timeout(2.0)
            yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    # first put immediate; the rest wait for gets at t=2 and t=4
    assert times == [0.0, 2.0, 4.0]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer():
        item = yield store.get()
        return (item, env.now)

    def producer():
        yield env.timeout(3.0)
        yield store.put("x")

    process = env.process(consumer())
    env.process(producer())
    assert env.run(process) == ("x", 3.0)


def test_store_filter_get():
    env = Environment()
    store = Store(env)

    def producer():
        for item in (1, 2, 3):
            yield store.put(item)

    def consumer():
        even = yield store.get(lambda item: item % 2 == 0)
        return even

    env.process(producer())
    process = env.process(consumer())
    assert env.run(process) == 2


def test_container_levels():
    env = Environment()
    container = Container(env, capacity=10, init=5)

    def proc():
        yield container.get(3)
        assert container.level == 2
        yield container.put(8)
        assert container.level == 10

    env.run(env.process(proc()))


def test_container_get_blocks_until_refill():
    env = Environment()
    container = Container(env, capacity=10, init=0)

    def consumer():
        yield container.get(4)
        return env.now

    def producer():
        yield env.timeout(2.0)
        yield container.put(4)

    process = env.process(consumer())
    env.process(producer())
    assert env.run(process) == 2.0


def test_container_rejects_invalid_init():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=5, init=6)
