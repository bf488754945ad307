"""Differential equivalence: the inlined ``run()`` loops vs. ``step()``.

``Simulator.step`` is the readable reference for what processing one
event means; ``Simulator.run`` unrolls it twice (with and without an
``until`` horizon) for speed.  The unrolled loops are only allowed to
be *faster* than stepping — never different.  These tests enforce that
two ways:

* randomized differential fuzzing: the same scripted workload (mixed
  timeouts, bare sleeps, ``call_in`` callbacks, zero-delay bursts,
  AnyOf/AllOf composites, spawned sub-processes, manually
  succeeded/failed events, parks and wakes) is driven once through
  ``run()`` and once by
  ``step()`` alone, and must produce the identical resume-and-callback
  trace, final ``now``, ``events_processed``, and — when the workload
  fails — the identical exception at the identical time;
* the same workload with every bare heap entry (a yielded number, a
  ``call_in``) spelled as the ``Timeout`` it replaced: the two kinds of
  entry take their sequence numbers at the same program points, so the
  traces must be identical too; likewise with every ``Park`` spelled as
  the fresh ``Event`` per wait, succeeded at the wake, that it replaced;
* targeted corners the fuzzer would only hit by luck: the post-drain
  clock bump followed by zero-delay scheduling, far-future events among
  dense ticks, non-finite delay rejection, back-to-back timeouts, and
  what a process may do out of a bare sleep (end, raise, wait on an
  event, be interrupted).
"""

import random

import numpy as np
import pytest

from repro.sim import Interrupt, Park, Simulator

#: Quantized delays with deliberate repeats: ties at equal times are the
#: scheduler's hardest ordering case, so make them common.
DELAYS = (0.0, 0.0, 0.1, 0.5, 1.0, 1.0, 2.5, 7.3, 100.0)

N_MANUAL = 6

#: Upper bound on top-level processes, each of which owns one park.
N_PARKS = 10


class _EventPark:
    """A park spelled as what the AM wakeup was before ``Park``: a fresh
    ``Event`` armed per wait, cleared and succeeded at the wake."""

    def __init__(self, sim):
        self.sim = sim
        self.event = None

    def arm(self):
        self.event = self.sim.event()
        return self.event

    def wake(self):
        event, self.event = self.event, None
        if event is not None:
            event.succeed(None)


# ---------------------------------------------------------------------------
# Randomized differential fuzzing.
# ---------------------------------------------------------------------------

def _make_script(rng, depth=0):
    """A deterministic per-process op list (same for both drivers)."""
    ops = ["timeout", "sleep", "call_in", "burst", "any_of", "all_of"]
    ops += ["wake", "wake"]
    if depth == 0:
        ops += ["spawn", "manual", "park", "park"]
    script = []
    for _ in range(rng.randrange(5, 12)):
        kind = rng.choice(ops)
        if kind in ("timeout", "sleep", "call_in"):
            script.append((kind, rng.choice(DELAYS)))
        elif kind == "burst":
            script.append(("burst",
                           [rng.choice(DELAYS)
                            for _ in range(rng.randrange(2, 5))]))
        elif kind in ("any_of", "all_of"):
            script.append((kind,
                           [rng.choice(DELAYS)
                            for _ in range(rng.randrange(2, 4))]))
        elif kind == "spawn":
            script.append(("spawn", _make_script(rng, depth + 1)))
        elif kind == "wake":
            script.append(("wake", rng.randrange(N_PARKS)))
        elif kind == "park":
            script.append(("park",))
        else:
            script.append(("manual", rng.randrange(N_MANUAL)))
    return script


def _build_workload(sim, seed, may_fail, bare=True, parks=True):
    """Instantiate one seeded workload on ``sim``; returns the trace
    list (appended to during the run) and the process list.  With
    ``bare=False`` every sleep and ``call_in`` is spelled with the
    ``Timeout`` it stands for; with ``parks=False`` every park is
    spelled with the ``Event`` per wait it stands for."""
    rng = random.Random(seed)
    trace = []
    manual = [sim.event(name=f"manual:{i}") for i in range(N_MANUAL)]
    # Process ``pid`` is the one waiter of ``spots[pid]``; anyone wakes.
    spots = [Park(sim) if parks else _EventPark(sim)
             for _ in range(N_PARKS)]

    def sleep(delay):
        return delay if bare else sim.timeout(delay)

    def call_in(delay, tag):
        def fired(seen):
            trace.append((sim.now, "callback", seen))

        if bare:
            sim.call_in(delay, fired, tag)
        else:
            sim.timeout(delay, tag).callbacks.append(
                lambda event: fired(event.value))

    def body(pid, script):
        for op_i, op in enumerate(script):
            kind = op[0]
            try:
                if kind == "timeout":
                    got = yield sim.timeout(op[1], value=(pid, op_i))
                elif kind == "sleep":
                    got = yield sleep(op[1])
                elif kind == "call_in":
                    got = call_in(op[1], (pid, op_i))
                elif kind == "burst":
                    # Sleeps and timeouts alternate, so both kinds of
                    # entry meet at equal instants and priorities.
                    got = None
                    for nth, delay in enumerate(op[1]):
                        got = yield (sleep(delay) if nth % 2
                                     else sim.timeout(delay))
                elif kind == "any_of":
                    got = yield sim.any_of(
                        [sim.timeout(d, value=d) for d in op[1]])
                    got = sorted(got.values())
                elif kind == "all_of":
                    got = yield sim.all_of(
                        [sim.timeout(d, value=d) for d in op[1]])
                    got = sorted(got.values())
                elif kind == "spawn":
                    got = yield sim.process(
                        body((pid, op_i), op[1]))
                elif kind == "wake":
                    got = spots[op[1]].wake()
                elif kind == "park":
                    yield (spots[pid] if parks else spots[pid].arm())
                    got = "unparked"
                else:
                    got = yield manual[op[1]]
            except RuntimeError as exc:
                got = f"caught:{exc}"
            trace.append((sim.now, pid, op_i, got))
        return pid

    scripts = [_make_script(rng) for _ in range(rng.randrange(4, 10))]
    procs = [sim.process(body(pid, script), name=f"p{pid}")
             for pid, script in enumerate(scripts)]

    # The driver resolves every manual event exactly once at scripted
    # times; some fail.  A failed event nobody happens to be waiting on
    # surfaces as the run's exception — which must also be identical
    # across drivers, so failing workloads are legal fuzz inputs.
    plan = [(rng.choice(DELAYS),
             idx,
             may_fail and rng.random() < 0.3)
            for idx in rng.sample(range(N_MANUAL), N_MANUAL)]

    def driver():
        for delay, idx, fail in plan:
            yield sleep(delay)
            if fail:
                manual[idx].fail(RuntimeError(f"scripted failure {idx}"))
            else:
                manual[idx].succeed(("manual", idx))
        # Nobody may stay parked for good: sweep until all are through.
        while any(proc.is_alive for proc in procs):
            yield sleep(7.3)
            for spot in spots:
                spot.wake()

    sim.process(driver(), name="driver")
    return trace, procs


HORIZONS = (1.0, 7.3, 50.0, 1e6)


def _step_all(sim):
    while sim.peek() != float("inf"):
        sim.step()


def _drive(sim, procs, mode):
    """Drive ``sim`` through the production ``run()`` loops."""
    if mode == "run":
        sim.run()
    elif mode == "stop":
        done = sim.run(stop_event=sim.all_of(procs))
        return sorted(map(repr, done.values()))
    elif mode == "until":
        # Several horizons, the last one past everything: exercises
        # horizon parking, resume, and the final clock bump.
        checkpoints = []
        for horizon in HORIZONS:
            sim.run(until=horizon)
            checkpoints.append((sim.now, sim.events_processed))
        return checkpoints
    else:  # "step": one tick per call, the horizon exactly on an event
        while sim.peek() != float("inf"):
            sim.run(until=sim.peek())
    return None


def _drive_reference(sim, procs, mode):
    """The same drive spelled with ``step()`` alone."""
    if mode == "stop":
        done = sim.all_of(procs)
        while not done.processed:
            sim.step()
        return sorted(map(repr, done.value.values()))
    if mode == "until":
        checkpoints = []
        for horizon in HORIZONS:
            while sim.peek() <= horizon:
                sim.step()
            sim.now = max(sim.now, horizon)
            checkpoints.append((sim.now, sim.events_processed))
        return checkpoints
    _step_all(sim)
    return None


def _run_workload(drive, seed, mode="run", may_fail=False, bare=True,
                  parks=True):
    """One full seeded run; returns everything that must be identical."""
    sim = Simulator()
    trace, procs = _build_workload(sim, seed, may_fail, bare, parks)
    outcome = None
    error = None
    try:
        outcome = drive(sim, procs, mode)
    except RuntimeError as exc:
        error = (type(exc).__name__, str(exc))
    return (trace, sim.now, sim.events_processed, outcome, error)


FUZZ_SEEDS = range(12)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
@pytest.mark.parametrize("mode", ["run", "stop", "until", "step"])
def test_fuzz_engines_bit_identical(seed, mode):
    reference = _run_workload(_drive_reference, seed, mode=mode)
    candidate = _run_workload(_drive, seed, mode=mode)
    assert candidate == reference


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_failing_events_bit_identical(seed):
    reference = _run_workload(_drive_reference, seed, may_fail=True)
    candidate = _run_workload(_drive, seed, may_fail=True)
    assert candidate == reference
    # Sanity: with 12 seeds and 30% failure odds, some seed must
    # actually die — otherwise the fuzzer lost its failing arm.
    if seed == FUZZ_SEEDS[-1]:
        assert any(_run_workload(_drive, s, may_fail=True)[4]
                   for s in FUZZ_SEEDS)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
@pytest.mark.parametrize("mode", ["run", "until"])
def test_bare_entries_order_as_the_timeouts_they_replace(seed, mode):
    """A yielded number and a ``call_in`` are the heap entries of the
    ``Timeout``s they stand for, minus the object: same instants, same
    tie order, same ``events_processed``."""
    spelled_out = _run_workload(_drive, seed, mode=mode, bare=False)
    bare = _run_workload(_drive, seed, mode=mode)
    assert bare == spelled_out
    assert any(row[1] == "callback" for row in bare[0])


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
@pytest.mark.parametrize("mode", ["run", "until"])
def test_park_wakes_order_as_the_events_they_replace(seed, mode):
    """``Park.wake()`` takes the heap entry ``Event.succeed()`` took, at
    the same program point: same instants, same tie order among events,
    sleeps and ``call_in`` entries, same ``events_processed``."""
    spelled_out = _run_workload(_drive, seed, mode=mode, parks=False)
    parked = _run_workload(_drive, seed, mode=mode)
    assert parked == spelled_out
    assert any(row[-1] == "unparked" for row in parked[0])


@pytest.mark.parametrize("seed", range(4))
def test_step_matches_run(seed):
    """step() and run() can be mixed on one simulator: a stepped prefix
    hands its clock and event count to run() without a seam."""
    def stepped_prefix(sim, procs, mode):
        for _ in range(7):
            sim.step()
        sim.run()

    assert (_run_workload(stepped_prefix, seed)
            == _run_workload(_drive, seed))


# ---------------------------------------------------------------------------
# Targeted corners.
# ---------------------------------------------------------------------------

def test_until_clock_bump_then_zero_delay_schedule():
    """After run(until) drains and bumps the clock, fresh zero-delay
    events must fire at the bumped time, in order."""
    sim = Simulator()

    def early():
        yield sim.timeout(1.0)

    sim.process(early())
    sim.run(until=5.0)
    assert sim.now == 5.0

    order = []

    def late(tag):
        yield sim.timeout(0.0)
        order.append((tag, sim.now))
        yield sim.timeout(0.25)
        order.append((tag, sim.now))

    sim.process(late("a"))
    sim.process(late("b"))
    sim.run()
    assert order == [("a", 5.0), ("b", 5.0), ("a", 5.25), ("b", 5.25)]


def test_far_future_and_same_tick_interleave():
    """Events at astronomically distant times still interleave
    correctly with dense near-term ticks."""
    sim = Simulator()
    seen = []

    def body(delay, tag):
        yield sim.timeout(delay)
        seen.append((sim.now, tag))

    for i, delay in enumerate((1e15, 0.0, 1e15, 3.0, 0.0, 1e300)):
        sim.process(body(delay, i))
    sim.run()
    assert seen == [(0.0, 1), (0.0, 4), (3.0, 3),
                    (1e15, 0), (1e15, 2), (1e300, 5)]
    assert sim.now == 1e300


BAD_DELAYS = (float("nan"), float("inf"), float("-inf"), -1.0, -1e-12)


@pytest.mark.parametrize("bad", BAD_DELAYS)
def test_bad_delays_rejected_identically(bad):
    """NaN/inf/negative delays raise ValueError on every entry point —
    ``sim.timeout`` and ``sim.call_in`` with the same message — without
    corrupting the simulator (it stays runnable and empty)."""
    sim = Simulator()
    messages = []
    for make in (lambda: sim.timeout(bad),
                 lambda: sim.call_in(bad, print),
                 lambda: sim._schedule(sim.event(), delay=bad),
                 lambda: sim.event().succeed(None, delay=bad)):
        with pytest.raises(ValueError) as excinfo:
            make()
        messages.append(str(excinfo.value))
    sim.run()
    assert sim.now == 0.0
    assert sim.events_processed == 0
    assert messages[0] == messages[1]
    assert messages[2] == messages[3]
    if bad != bad or bad in (float("inf"), float("-inf")):
        assert all("non-finite" in msg for msg in messages)


def test_timeout_recycling_does_not_leak_state():
    """Back-to-back timeouts each deliver their own value, never a
    neighbour's."""
    sim = Simulator()
    got = []

    def body():
        for i in range(2000):
            value = yield sim.timeout(0.5, value=i if i % 3 else None)
            got.append(value)

    sim.process(body())
    sim.run()
    assert got == [i if i % 3 else None for i in range(2000)]
    assert sim.now == 1000.0


# ---------------------------------------------------------------------------
# Bare sleeps: what a process may yield, and do next.
# ---------------------------------------------------------------------------

def test_zero_sleep_runs_behind_everything_already_scheduled():
    """The section 13.1 tie order: a bare delay of 0.0 is one more entry
    at this instant, behind those already there and ahead of later ones,
    whichever kind each is."""
    sim = Simulator()
    order = []

    def sleeper():
        yield 0.0  # t=0: behind "first" and "early", which came before
        order.append("slept")
        sim.call_in(0.0, order.append, "late")

    sim.call_in(0.0, order.append, "first")
    sim.process(sleeper())  # its kick-off entry
    sim.timeout(0.0).callbacks.append(lambda _e: order.append("early"))
    sim.run()
    assert order == ["first", "early", "slept", "late"]
    assert (sim.now, sim.events_processed) == (0.0, 6)  # + the process ending


@pytest.mark.parametrize("delay", [3, 3.0, np.float64(3), np.int32(3)])
def test_any_real_number_is_a_sleep(delay):
    sim = Simulator()

    def body():
        got = yield delay
        return (got, sim.now)

    proc = sim.process(body())
    sim.run()
    assert proc.value == (None, 3.0)
    assert sim.events_processed == 3  # kick-off, wake-up, completion


@pytest.mark.parametrize("bad", BAD_DELAYS)
def test_bad_sleep_fails_the_process_as_timeout_would(bad):
    """Same text as ``sim.timeout(bad)``, thrown at the ``yield``: the
    process may catch it; uncaught, it is the process's failure."""
    sim = Simulator()
    with pytest.raises(ValueError) as expected:
        sim.timeout(bad)

    def body(catch):
        try:
            yield 1.0
            yield bad
        except ValueError as exc:
            if not catch:
                raise
            yield 2.0
            return str(exc)

    caught = sim.process(body(True))
    sim.run()
    assert caught.value == str(expected.value)
    assert sim.now == 3.0
    sim.process(body(False))
    with pytest.raises(ValueError) as raised:
        sim.run()
    assert str(raised.value) == str(expected.value)


def test_interrupt_during_a_bare_sleep():
    """The interrupt lands at once; the sleep's own wake-up still comes
    off the heap, is counted, and resumes nothing."""
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 10.0
            log.append(("overslept", sim.now))
        except Interrupt as stop:
            log.append((stop.cause, sim.now))
            yield 20.0  # ends at 22, straight through the orphan at 10
            log.append(("rested", sim.now))

    proc = sim.process(sleeper())

    def waker():
        yield 2.0
        assert proc.waiting_on is None  # asleep: no event to report
        proc.interrupt("up")

    sim.process(waker())
    sim.run(until=9.0)
    assert log == [("up", 2.0)]
    before = sim.events_processed
    sim.run(until=11.0)  # only the orphaned wake-up is in this window
    assert (log, sim.events_processed) == ([("up", 2.0)], before + 1)
    sim.run()
    assert log == [("up", 2.0), ("rested", 22.0)]


@pytest.mark.parametrize("first", [1.0, "timeout"])
def test_out_of_a_sleep_as_out_of_an_event(first):
    """Ending, raising, and waiting on an event (pending or already
    processed) behave the same whether the generator was last resumed
    out of a bare sleep or out of an event."""
    sim = Simulator()
    gate, past = sim.event(), sim.timeout(0.5, "past")

    def pause():
        return sim.timeout(1.0) if first == "timeout" else first

    def ends():
        yield pause()
        return "done"

    def raises():
        yield pause()
        raise KeyError("mid-run")

    def waits():
        yield pause()
        early = yield past  # processed at 0.5: bridged, never synchronous
        got = yield gate
        return (early, got, sim.now)

    def opens():
        yield 4.0
        gate.succeed("open")

    done, failed, waited = (sim.process(body())
                            for body in (ends, raises, waits))
    sim.process(opens())
    failed._defused = True  # nobody waits on it; look at it afterwards
    sim.run(until=2.0)
    assert (done.value, waited.waiting_on) == ("done", gate)
    assert isinstance(failed.value, KeyError) and not failed.ok
    sim.run()
    assert waited.value == ("past", "open", 4.0)
