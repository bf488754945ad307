"""Remaining edge cases of the simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Simulator
from repro.sim.events import EventError


def test_run_until_exact_event_time_processes_event():
    sim = Simulator()
    fired = []

    def body():
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(body())
    sim.run(until=10.0)
    assert fired == [10.0]


@pytest.mark.parametrize("until", [5.0, float("nan"), float("-inf")])
def test_run_until_never_moves_the_clock_backwards(until):
    """run(until) earlier than now (or NaN) is refused before anything
    changes: the clock stays put and queued events stay queued."""
    sim = Simulator()
    fired = []

    def body():
        yield sim.timeout(10.0)
        yield sim.timeout(10.0)
        fired.append(sim.now)

    sim.process(body())
    sim.run(until=12.0)
    with pytest.raises(ValueError, match="into the past"):
        sim.run(until=until)
    assert sim.now == 12.0
    assert sim.peek() == 20.0
    sim.run(until=12.0)  # the present is a legal horizon
    assert sim.now == 12.0
    sim.run()
    assert fired == [20.0]


def test_anyof_failure_propagates_to_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def body():
        try:
            yield sim.any_of([gate, sim.timeout(100.0)])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(body())
    gate.fail(RuntimeError("anyof-child-failed"))
    sim.run()
    assert caught == ["anyof-child-failed"]


def test_allof_failure_propagates_to_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def body():
        try:
            yield sim.all_of([sim.timeout(1.0), gate])
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(body())
    gate.fail(RuntimeError("allof-child-failed"))
    sim.run()
    assert caught == ["allof-child-failed"]


def test_waiting_on_failing_child_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("child died")

    def parent():
        try:
            yield sim.process(child())
        except ValueError:
            return "handled"
        return "missed"

    proc = sim.process(parent())
    assert sim.run(stop_event=proc) == "handled"


def test_event_fail_requires_exception_instance():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_event_ok_before_trigger_is_error():
    sim = Simulator()
    with pytest.raises(EventError):
        _ = sim.event().ok


def test_late_callback_fires_from_event_loop():
    sim = Simulator()
    fired = []

    def body():
        done = sim.timeout(1.0)
        yield done
        # `done` is processed now; a late subscription must still fire.
        done.add_callback(lambda e: fired.append(sim.now))
        yield sim.timeout(1.0)

    sim.process(body())
    sim.run()
    assert fired == [1.0]


def test_store_capacity_validation():
    from repro.sim import Store
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_peek_on_empty_heap_is_infinity():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_anyof_with_already_processed_child():
    sim = Simulator()

    def body():
        first = sim.timeout(1.0, value="first")
        yield first  # processed now
        result = yield sim.any_of([first, sim.timeout(50.0)])
        return (sim.now, list(result.values()))

    proc = sim.process(body())
    # The already-processed child satisfies the condition immediately
    # (on the next engine step, at the same simulated time).
    assert sim.run(stop_event=proc) == (1.0, ["first"])
