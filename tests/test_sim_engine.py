"""Unit tests for the discrete-event kernel (engine, events, processes)."""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, Park, Simulator
from repro.sim.events import EventError


def test_empty_run_leaves_clock_at_zero():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_timeout_advances_clock():
    sim = Simulator()

    def body():
        yield sim.timeout(5.0)
        yield sim.timeout(2.5)

    sim.process(body())
    sim.run()
    assert sim.now == 7.5


def test_timeout_carries_value():
    sim = Simulator()
    seen = []

    def body():
        value = yield sim.timeout(1.0, value="hello")
        seen.append(value)

    sim.process(body())
    sim.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_return_value_via_stop_event():
    sim = Simulator()

    def body():
        yield sim.timeout(3.0)
        return 99

    proc = sim.process(body())
    assert sim.run(stop_event=proc) == 99


def test_events_process_in_time_order():
    sim = Simulator()
    order = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_fifo_order_at_equal_times():
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(10):
        sim.process(waiter(tag))
    sim.run()
    assert order == list(range(10))


def test_process_waits_on_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return "done"

    def parent():
        result = yield sim.process(child())
        assert result == "done"
        return sim.now

    proc = sim.process(parent())
    assert sim.run(stop_event=proc) == 4.0


def test_manual_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event("gate")

    def opener():
        yield sim.timeout(10.0)
        gate.succeed("opened")

    def waiter():
        value = yield gate
        return (sim.now, value)

    sim.process(opener())
    proc = sim.process(waiter())
    assert sim.run(stop_event=proc) == (10.0, "opened")


def test_event_double_trigger_is_error():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(EventError):
        event.succeed(2)


def test_event_value_before_trigger_is_error():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(EventError):
        _ = event.value


def test_failed_event_raises_inside_process():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    gate.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("oops")

    sim.process(bad())
    with pytest.raises(ValueError, match="oops"):
        sim.run()


def test_yielding_non_event_raises_typeerror_in_process():
    sim = Simulator()

    def bad(target):
        yield target

    # A number would be a sleep; a bool is not a number of microseconds.
    for target in ("42", None, True):
        sim.process(bad(target))
        with pytest.raises(TypeError):
            sim.run()


def test_non_generator_process_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_interrupt_preempts_wait():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("overslept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    def interrupter(victim):
        yield sim.timeout(5.0)
        victim.interrupt("wake up")

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    assert log == [("interrupted", 5.0, "wake up")]


def test_interrupted_process_can_wait_again():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(7.0)
        log.append(sim.now)

    def interrupter(victim):
        yield sim.timeout(5.0)
        victim.interrupt()

    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
    sim.run()
    # Abandoned 100 us timeout must not wake the process later.
    assert log == [12.0]


def test_interrupt_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(RuntimeError):
        proc.interrupt()


def _parker(sim, park, log, tag="host"):
    """Park, note each resume, until interrupted for good."""
    while True:
        try:
            got = yield park
            log.append((tag, sim.now, got))
        except Interrupt as stop:
            log.append((tag, sim.now, stop.cause))
            if stop.cause == "quit":
                return


def test_park_wake_with_nobody_parked_is_a_noop():
    sim = Simulator()
    park = Park(sim, "spot")
    park.wake()
    sim.run()
    assert sim.events_processed == 0
    assert repr(park) == "<Park spot [idle]>"


def test_park_resumes_its_waiter_once_per_wake_from_the_loop():
    sim = Simulator()
    park, log = Park(sim, "spot"), []
    host = sim.process(_parker(sim, park, log))
    sim.run()  # parked: the heap drains with the process alive
    assert host.is_alive and host.waiting_on is park
    assert park.waiter is host
    assert repr(park) == "<Park spot [pending]>"
    before = sim.events_processed
    sim.call_in(3.0, lambda _arg: (park.wake(), park.wake(),
                                   log.append("woken, not yet resumed")))
    sim.run()
    # Two wakes before the entry fires are one entry and one resume,
    # delivered from the event loop, never synchronously.
    assert log == ["woken, not yet resumed", ("host", 3.0, None)]
    assert sim.events_processed == before + 2  # the call_in, the wake
    assert host.waiting_on is park  # a park is reusable: back on it
    park.wake()
    sim.run()
    assert log[2:] == [("host", 3.0, None)]


def test_second_process_on_an_occupied_park_gets_a_runtime_error():
    sim = Simulator()
    park, log = Park(sim, "spot"), []
    host = sim.process(_parker(sim, park, log), name="host")

    def intruder():
        try:
            yield park
        except RuntimeError as exc:
            return str(exc)

    thief = sim.process(intruder())
    sim.run()
    assert thief.value == "<Park spot [pending]> already holds 'host'"
    park.wake()
    sim.run()
    assert log == [("host", 0.0, None)]  # not stolen: the host's wake


def test_interrupted_while_parked_ignores_the_later_wake_and_reparks():
    sim = Simulator()
    park, log = Park(sim, "spot"), []
    host = sim.process(_parker(sim, park, log))
    sim.run()
    host.interrupt("up")
    assert park.waiter is None  # the interrupt freed the park
    park.wake()  # so this wakes nobody
    assert sim.events_processed == 1
    sim.run()
    assert log == [("host", 0.0, "up")]
    assert sim.events_processed == 2  # the interrupt alone
    assert host.waiting_on is park  # parked there again
    sim.call_in(4.0, lambda _arg: park.wake())
    sim.run()
    assert log[1:] == [("host", 4.0, None)]
    # A wake already on its way when the interrupt lands is discarded,
    # and whoever took the freed park meanwhile keeps it.
    sim.call_in(0.0, lambda _arg: park.wake())
    heir = sim.process(_parker(sim, park, log, tag="heir"))
    sim.step()  # the wake: its entry queues behind the heir's kick-off
    sim.step()  # the heir parks on the freed park
    host.interrupt("quit")
    assert park.waiter is heir
    sim.run()
    assert log[2:] == [("host", 4.0, "quit")] and not host.is_alive
    assert park.waiter is heir


def test_two_interrupts_in_one_instant_never_trip_over_the_own_park():
    sim = Simulator()
    park, log = Park(sim, "spot"), []
    host = sim.process(_parker(sim, park, log))
    sim.run()
    host.interrupt("one")
    host.interrupt("two")  # thrown after "one" has parked the host again
    sim.run()
    assert log == [("host", 0.0, "one"), ("host", 0.0, "two")]
    assert host.is_alive and host.waiting_on is park and park.waiter is host

    # The second throw lets go of the park the first one re-took, so a
    # host that leaves for a sleep does not keep it occupied.
    def napper():
        while True:
            try:
                yield park
            except Interrupt as stop:
                if stop.cause == "nap":
                    yield 5.0

    host.interrupt("quit")
    sim.run()
    dozer = sim.process(napper())
    sim.run()
    dozer.interrupt("stir")
    dozer.interrupt("nap")
    sim.run(until=sim.now + 1.0)
    assert dozer.waiting_on is None and park.waiter is None
    sim.run()
    assert dozer.waiting_on is park and park.waiter is dozer


def test_park_of_another_simulator_is_rejected():
    sim, other = Simulator(), Simulator()

    def body():
        try:
            yield Park(other)
        except ValueError as exc:
            return str(exc)

    proc = sim.process(body())
    sim.run()
    assert proc.value == "yielded event belongs to a different simulator"


def test_run_until_stops_midway():
    sim = Simulator()
    log = []

    def body():
        yield sim.timeout(10.0)
        log.append("ran")

    sim.process(body())
    sim.run(until=5.0)
    assert sim.now == 5.0 and log == []
    sim.run()
    assert log == ["ran"] and sim.now == 10.0


def test_stop_event_timeout_error_when_never_fires():
    sim = Simulator()
    never = sim.event()

    def body():
        yield sim.timeout(1.0)

    sim.process(body())
    with pytest.raises(TimeoutError):
        sim.run(stop_event=never)


def test_anyof_succeeds_on_first():
    sim = Simulator()

    def body():
        first = sim.timeout(3.0, value="slow")
        second = sim.timeout(1.0, value="fast")
        result = yield sim.any_of([first, second])
        return (sim.now, list(result.values()))

    proc = sim.process(body())
    assert sim.run(stop_event=proc) == (1.0, ["fast"])


def test_allof_waits_for_all():
    sim = Simulator()

    def body():
        events = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        result = yield sim.all_of(events)
        return (sim.now, sorted(result.values()))

    proc = sim.process(body())
    assert sim.run(stop_event=proc) == (3.0, [1.0, 2.0, 3.0])


def test_allof_empty_list_succeeds_immediately():
    sim = Simulator()

    def body():
        yield sim.all_of([])
        return sim.now

    proc = sim.process(body())
    assert sim.run(stop_event=proc) == 0.0


def test_events_processed_counter_increases():
    sim = Simulator()

    def body():
        for _ in range(5):
            yield sim.timeout(1.0)

    sim.process(body())
    sim.run()
    assert sim.events_processed >= 5
