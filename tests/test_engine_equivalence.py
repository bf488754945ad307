"""Differential equivalence: the inlined ``run()`` loops vs. ``step()``.

``Simulator.step`` is the readable reference for what processing one
event means; ``Simulator.run`` unrolls it twice (with and without an
``until`` horizon) for speed.  The unrolled loops are only allowed to
be *faster* than stepping — never different.  These tests enforce that
two ways:

* randomized differential fuzzing: the same scripted workload (mixed
  timeouts, zero-delay bursts, AnyOf/AllOf composites, spawned
  sub-processes, manually succeeded/failed events) is driven once
  through ``run()`` and once by ``step()`` alone, and must produce the
  identical resume trace, final ``now``, ``events_processed``, and —
  when the workload fails — the identical exception at the identical
  time;
* targeted corners the fuzzer would only hit by luck: the post-drain
  clock bump followed by zero-delay scheduling, far-future events among
  dense ticks, non-finite delay rejection, and back-to-back timeouts.
"""

import random

import pytest

from repro.sim import Simulator
from repro.sim.events import Timeout

#: Quantized delays with deliberate repeats: ties at equal times are the
#: scheduler's hardest ordering case, so make them common.
DELAYS = (0.0, 0.0, 0.1, 0.5, 1.0, 1.0, 2.5, 7.3, 100.0)

N_MANUAL = 6


# ---------------------------------------------------------------------------
# Randomized differential fuzzing.
# ---------------------------------------------------------------------------

def _make_script(rng, depth=0):
    """A deterministic per-process op list (same for both drivers)."""
    ops = ["timeout", "burst", "any_of", "all_of"]
    if depth == 0:
        ops += ["spawn", "manual"]
    script = []
    for _ in range(rng.randrange(3, 9)):
        kind = rng.choice(ops)
        if kind == "timeout":
            script.append(("timeout", rng.choice(DELAYS)))
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
        else:
            script.append(("manual", rng.randrange(N_MANUAL)))
    return script


def _build_workload(sim, seed, may_fail):
    """Instantiate one seeded workload on ``sim``; returns the trace
    list (appended to during the run) and the process list."""
    rng = random.Random(seed)
    trace = []
    manual = [sim.event(name=f"manual:{i}") for i in range(N_MANUAL)]

    def body(pid, script):
        for op_i, op in enumerate(script):
            kind = op[0]
            try:
                if kind == "timeout":
                    got = yield sim.timeout(op[1], value=(pid, op_i))
                elif kind == "burst":
                    got = None
                    for delay in op[1]:
                        got = yield sim.timeout(delay)
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
            yield sim.timeout(delay)
            if fail:
                manual[idx].fail(RuntimeError(f"scripted failure {idx}"))
            else:
                manual[idx].succeed(("manual", idx))

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
            sim._now = max(sim.now, horizon)
            checkpoints.append((sim.now, sim.events_processed))
        return checkpoints
    _step_all(sim)
    return None


def _run_workload(drive, seed, mode="run", may_fail=False):
    """One full seeded run; returns everything that must be identical."""
    sim = Simulator()
    trace, procs = _build_workload(sim, seed, may_fail)
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
    the fast ``sim.timeout`` path and the ``Timeout`` constructor with
    the same message — without corrupting the simulator (it stays
    runnable and empty)."""
    sim = Simulator()
    messages = []
    for make in (lambda: sim.timeout(bad),
                 lambda: Timeout(sim, bad),
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
