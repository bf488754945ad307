"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store
from repro.sim.resources import ResourceError


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    first, second, third = res.request(), res.request(), res.request()
    assert first.triggered and second.triggered
    assert not third.triggered


def test_resource_release_wakes_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append(("got", tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(user("a", 5.0))
    sim.process(user("b", 3.0))
    sim.process(user("c", 1.0))
    sim.run()
    assert order == [("got", "a", 0.0), ("got", "b", 5.0),
                     ("got", "c", 8.0)]


def test_resource_release_idle_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(ResourceError):
        res.release()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def body():
        store.put("x")
        item = yield store.get()
        return item

    proc = sim.process(body())
    assert sim.run(stop_event=proc) == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    log = []

    def consumer():
        item = yield store.get()
        log.append((item, sim.now))

    def producer():
        yield sim.timeout(7.0)
        store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert log == [("late", 7.0)]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    for value in range(5):
        store.put(value)
    received = []

    def consumer():
        for _ in range(5):
            item = yield store.get()
            received.append(item)

    sim.process(consumer())
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        first = store.put("a")
        yield first
        second = store.put("b")
        yield second
        log.append(("b stored", sim.now))

    def consumer():
        yield sim.timeout(4.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("got", "a", 4.0) in log
    assert ("b stored", 4.0) in log


def test_store_direct_handoff_to_waiting_getter():
    sim = Simulator()
    store = Store(sim)
    get_event = store.get()
    assert not get_event.triggered
    store.put(42)
    sim.run()
    assert get_event.value == 42
    assert len(store) == 0


def test_store_len_and_peek():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.peek_items() == (1, 2)
