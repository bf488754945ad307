"""simsan: the happens-before race & deadlock sanitizer.

The contract under test: the planted fixture apps produce exactly the
defects they plant (a dual-site data race; a two-rank lock cycle; a
stuck barrier frontier); clean suite apps stay silent; ``sanitize=off``
is bit-identical to a plain run; the harness taxonomy splits failures
into deadlock / livelock / budget exceeded / fault; and sanitized
sweeps bypass the run cache in both directions.
"""

from pathlib import Path

import pytest

from repro.am.tuning import TuningKnobs
from repro.apps import RadixSort, default_suite
from repro.cluster.machine import Cluster
from repro.gas.runtime import LivelockError
from repro.harness import RunCache
from repro.harness.parallel import PointTask, execute_point
from repro.harness.sweeps import FAILURE_CATEGORIES, SweepPoint, run_sweep
from repro.network.faults import FaultPlan
from repro.network.packet import PacketKind, new_packet
from repro.sanitize import DeadlockError, Sanitizer
from repro.sanitize.clocks import ClockSet
from repro.sanitize.cli import load_app, main

FIXTURES = Path(__file__).parent / "fixtures" / "sanitize"


def fixture_app(stem, class_name):
    return load_app(f"{FIXTURES / stem}.py:{class_name}")


# ---------------------------------------------------------------------------
# Vector clocks: the happens-before substrate.
# ---------------------------------------------------------------------------

def test_clockset_send_increment_protocol():
    clocks = ClockSet(2)
    t_access = clocks.tick_of(0)  # rank 0 accesses before any send
    assert not clocks.ordered(1, 0, t_access)
    snapshot = clocks.tick(0)     # rank 0's first send post-access...
    clocks.join(1, snapshot)      # ...reaches rank 1
    assert clocks.ordered(1, 0, t_access)
    # An access rank 0 makes after that send stays unordered.
    assert not clocks.ordered(1, 0, clocks.tick_of(0))


# ---------------------------------------------------------------------------
# The planted race: put and read of the same element, unsynchronized.
# ---------------------------------------------------------------------------

def test_planted_race_is_detected_with_both_sites():
    result = Cluster(n_nodes=8, seed=11, sanitize=True).run(
        fixture_app("racy_put", "RacyPut"))
    races = result.sanitizer.races
    assert len(races) == 1  # deduped across elements and orderings
    race = races[0]
    assert race.occurrences == 8  # one per element of slots[]
    kinds = {race.prior.kind, race.access.kind}
    assert kinds == {"put", "read"}
    sites = {race.prior.site, race.access.site}
    assert sites == {"racy_put.py:26", "racy_put.py:27"}
    assert race.prior.rank != race.access.rank
    assert race.location.startswith("slots[")


def test_clean_suite_apps_are_silent():
    for app in default_suite(scale=0.1)[:2]:  # Radix + EM3D(write)
        result = Cluster(n_nodes=4, seed=11, sanitize=True).run(app)
        report = result.sanitizer
        assert report.clean, report.render()
        assert report.races == ()


# ---------------------------------------------------------------------------
# The planted deadlocks: lock cycle and stuck barrier frontier.
# ---------------------------------------------------------------------------

def test_planted_lock_cycle_is_reported_with_members():
    with pytest.raises(DeadlockError) as exc_info:
        Cluster(n_nodes=2, seed=11, livelock_limit=200,
                sanitize=True).run(fixture_app("lock_cycle", "LockCycle"))
    report = exc_info.value.report
    assert report.kind == "cycle"
    assert report.ranks == (0, 1)
    assert all(edge.kind == "lock" for edge in report.edges)
    assert "cycle" in str(exc_info.value)


def test_lock_cycle_without_sanitizer_stays_livelock():
    with pytest.raises(LivelockError):
        Cluster(n_nodes=2, seed=11, livelock_limit=200).run(
            fixture_app("lock_cycle", "LockCycle"))


def test_unbalanced_barrier_is_a_frontier_deadlock():
    with pytest.raises(DeadlockError) as exc_info:
        Cluster(n_nodes=4, seed=11, sanitize=True).run(
            fixture_app("unbalanced_barrier", "UnbalancedBarrier"))
    report = exc_info.value.report
    assert report.kind == "frontier"
    assert 0 not in report.ranks  # rank 0 finished; the others wedge
    assert all(edge.kind == "barrier" for edge in report.edges)


def test_unbalanced_barrier_deadlocks_even_without_sanitizer():
    # Heap exhaustion is detected structurally (StalledError), so the
    # upgrade from TimeoutError to DeadlockError needs no sanitizer —
    # only the edge annotations do.
    with pytest.raises(DeadlockError) as exc_info:
        Cluster(n_nodes=4, seed=11).run(
            fixture_app("unbalanced_barrier", "UnbalancedBarrier"))
    report = exc_info.value.report
    assert report.kind == "frontier"
    # Without annotations each edge names what its rank is parked on:
    # the AM wakeup, a kernel ``Park`` labelled with the rank (the label
    # is formatted once per endpoint, so pin the text it must keep).
    assert [(edge.rank, edge.kind, edge.detail) for edge in report.edges] \
        == [(rank, "unknown",
             f"blocked on <Park am-wakeup[{rank}] [pending]>")
            for rank in (1, 2, 3)]


def test_deadlock_error_is_a_timeout_subclass():
    # Existing harness code catching TimeoutError keeps working.
    assert issubclass(DeadlockError, TimeoutError)


# ---------------------------------------------------------------------------
# Bit-identity: the sanitizer observes, never perturbs.
# ---------------------------------------------------------------------------

def test_sanitized_run_is_bit_identical_to_plain_run():
    app = RadixSort(keys_per_proc=32)
    plain = Cluster(n_nodes=4, seed=7).run(app)
    sanitized = Cluster(n_nodes=4, seed=7, sanitize=True).run(app)
    assert sanitized.runtime_us == plain.runtime_us
    assert sanitized.events_processed == plain.events_processed
    assert plain.sanitizer is None
    assert sanitized.sanitizer.accesses_checked > 0
    assert sanitized.sanitizer.messages_clocked > 0


# ---------------------------------------------------------------------------
# Harness taxonomy: one category per failure mode.
# ---------------------------------------------------------------------------

def _task(app, n_nodes, **overrides):
    return PointTask(app, Cluster(n_nodes, **{"seed": 11, **overrides}))


def test_taxonomy_deadlock_point():
    point = execute_point(_task(fixture_app("lock_cycle", "LockCycle"),
                                2, livelock_limit=200, sanitize=True))
    assert point.failure.startswith("deadlock: ")
    assert point.failure_category == "deadlock"


def test_taxonomy_livelock_point():
    point = execute_point(_task(fixture_app("lock_cycle", "LockCycle"),
                                2, livelock_limit=200))
    assert point.failure.startswith("livelock: ")
    assert point.failure_category == "livelock"


def test_taxonomy_budget_exceeded_point():
    point = execute_point(_task(RadixSort(keys_per_proc=32), 4,
                                run_limit_us=5.0))
    assert point.failure.startswith("budget exceeded: ")
    assert point.failure_category == "budget exceeded"


def test_taxonomy_fault_point():
    plan = FaultPlan(drop_rate=1.0, retx_timeout_us=10.0, max_retries=2)
    point = execute_point(_task(RadixSort(keys_per_proc=32), 2, seed=0,
                                faults=plan))
    assert point.failure.startswith("fault: ")
    assert point.failure_category == "fault"


def test_failure_category_edge_cases():
    knobs = TuningKnobs()
    assert SweepPoint(value=0.0, knobs=knobs).failure_category is None
    unknown = SweepPoint(value=0.0, knobs=knobs, failure="weird crash")
    assert unknown.failure_category == "error"
    assert "error" not in FAILURE_CATEGORIES


def test_a_deadlocked_sweep_point_carries_its_failure_category():
    sweep = run_sweep(
        fixture_app("lock_cycle", "LockCycle"), 2, "latency", [5.0],
        seed=11, livelock_limit=200, sanitize=True)
    point, = sweep.points
    assert point.failure_category == "deadlock"
    assert not point.completed and point.runtime_us is None


# ---------------------------------------------------------------------------
# Cache discipline: sanitized sweeps never touch the cache.
# ---------------------------------------------------------------------------

def test_sanitized_sweep_bypasses_the_cache(tmp_path):
    cache = RunCache(tmp_path / "cache")
    app = RadixSort(keys_per_proc=32)
    run_sweep(app, 2, "latency", [5.0], seed=3, cache=cache,
              sanitize=True)
    assert len(cache) == 0  # no puts
    assert cache.hits == 0 and cache.misses == 0  # no gets either


def test_sanitize_is_not_part_of_the_cache_key():
    task = _task(RadixSort(keys_per_proc=32), 2)
    sanitized = _task(RadixSort(keys_per_proc=32), 2, sanitize=True)
    assert task.spec == sanitized.spec
    assert "sanitize" not in task.spec


# ---------------------------------------------------------------------------
# The CLI.
# ---------------------------------------------------------------------------

def test_cli_reports_planted_race(capsys):
    code = main([f"{FIXTURES / 'racy_put'}.py:RacyPut", "--nodes", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert "race on slots[" in out
    assert "racy_put.py:26" in out and "racy_put.py:27" in out


def test_cli_a_failing_answer_check_is_that_apps_failure(capsys):
    """An ``AssertionError`` from ``finalize``, the suite's wrong-answer
    signal, was a traceback: the apps after it never ran and no summary
    was printed.  It is that app's failure; the rest still run."""
    import json
    argv = [f"{FIXTURES / 'wrong_answer'}.py:WrongAnswer", "Radix",
            "--scale", "0.1", "--nodes", "4"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["WrongAnswer: check failed: planted: rank 0 holds the "
                   "wrong sum", "simsan: 1 finding(s) across 2 app(s)",
                   "simsan: blind spot: numpy access through proc.local() "
                   "is not tracked"]
    assert main(argv + ["--format", "json"]) == 1
    wrong, radix = json.loads(capsys.readouterr().out)["apps"]
    assert wrong["failure"].startswith("check failed: planted")
    assert radix["failure"] is None and radix["runtime_us"] > 0


def test_cli_reports_the_races_of_a_run_whose_check_fails(capsys):
    """A failed answer check used to discard the run's sanitizer
    report: only the check was printed, never the race behind it."""
    import json
    argv = [f"{FIXTURES / 'racy_wrong_answer'}.py:RacyWrong", "--nodes", "4"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("RacyWrong: race on slots[")
    assert out[0].endswith("[x4]")
    assert out[1] == "RacyWrong: check failed: planted wrong answer"
    assert main(argv + ["--format", "json"]) == 1
    entry, = json.loads(capsys.readouterr().out)["apps"]
    assert entry["failure"] == "check failed: planted wrong answer"
    assert len(entry["races"]) == 1
    assert entry["report"]["races"] == entry["races"]


def test_every_report_names_what_simsan_does_not_see(capsys):
    """A clean report is no proof for access simsan does not track:
    the text summary and the JSON report name it, under a fixed key."""
    import json
    from repro.sanitize.reports import BLIND_SPOTS
    assert any("proc.local()" in spot for spot in BLIND_SPOTS)
    assert main(["Radix", "--scale", "0.1", "--nodes", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-len(BLIND_SPOTS):] == [
        f"simsan: blind spot: {spot}" for spot in BLIND_SPOTS]
    assert main(["Radix", "--scale", "0.1", "--nodes", "4",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["blind_spots"] == list(BLIND_SPOTS)
    assert payload["apps"][0]["report"]["blind_spots"] == list(BLIND_SPOTS)


def test_cli_clean_run_exits_zero(capsys):
    code = main(["Radix", "--scale", "0.1", "--nodes", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "simsan: 0 finding(s) across 1 app(s)" in out


def test_cli_sizes_suite_apps_as_every_driver_does(capsys):
    """``--scale`` is the total input as at 32 nodes, as ``suite_for``
    sizes it for every other driver, and app order follows the
    command line."""
    import json
    from repro.harness.suite import suite_for
    assert main(["Connect", f"{FIXTURES / 'racy_put'}.py:RacyPut", "Radix",
                 "--scale", "0.1", "--nodes", "4", "--format", "json"]) == 1
    entries = json.loads(capsys.readouterr().out)["apps"]
    assert [entry["app"] for entry in entries][::2] == ["Connect", "Radix"]
    for entry in entries[::2]:
        app, = suite_for(4, 0.1, names=[entry["app"]])
        assert entry["runtime_us"] == Cluster(4, seed=11).run(app).runtime_us


def test_cli_rejects_unknown_app(capsys):
    assert main(["NoSuchApp"]) == 2
    assert "unknown app" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, said", [
    ("--run-limit-us", "nan", "'nan' is not a finite number > 0"),
    ("--run-limit-us", "0", "'0' is not a finite number > 0"),
    ("--livelock-limit", "-5", "must be >= 0, got -5"),
    ("--nodes", "0", "must be >= 1, got 0"),
])
def test_cli_a_machine_it_cannot_build_is_a_usage_error(flag, value, said,
                                                        capsys):
    """These raised mid-run and exited 1, this driver's code for a race
    or a deadlock; they exit 2 at parse time."""
    with pytest.raises(SystemExit) as refused:
        main(["Sample", flag, value])
    assert refused.value.code == 2
    assert f"argument {flag}: {said}" in \
        capsys.readouterr().err.splitlines()[-1]


def test_cli_json_format_includes_deadlock(capsys):
    import json
    code = main([f"{FIXTURES / 'lock_cycle'}.py:LockCycle",
                 "--nodes", "2", "--livelock-limit", "200",
                 "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    entry = payload["apps"][0]
    assert entry["deadlock"]["kind"] == "cycle"
    assert sorted(entry["deadlock"]["ranks"]) == [0, 1]
    # Rank 0 skips the last barrier: the others wait in it forever.
    code = main([f"{FIXTURES / 'unbalanced_barrier'}.py:UnbalancedBarrier",
                 "--nodes", "4", "--format", "json"])
    assert code == 1
    deadlock = json.loads(capsys.readouterr().out)["apps"][0]["deadlock"]
    assert deadlock["kind"] == "frontier"
    assert [(edge["rank"], edge["kind"], edge["on"], edge["detail"])
            for edge in deadlock["edges"]] == [
        (1, "barrier", [0], "barrier epoch 3 round 0"),
        (2, "barrier", [0], "barrier epoch 3 round 1"),
        (3, "barrier", [1], "barrier epoch 3 round 1")]


# ---------------------------------------------------------------------------
# Direct sanitizer unit coverage: exemptions of the check matrix.
# ---------------------------------------------------------------------------

class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _FakeArray:
    def __init__(self):
        self.array_id = 1
        self.name = "a"

    def element_name(self, index):
        return f"a[{index}]"


def test_same_mode_accumulates_commute():
    san = Sanitizer(2, sim=_FakeSim())
    array = _FakeArray()
    san.on_access(0, array, 0, "add")
    san.on_access(1, array, 0, "add")
    assert san.races == []  # same-mode accum-accum is exempt


def test_mixed_mode_accumulates_race():
    san = Sanitizer(2, sim=_FakeSim())
    array = _FakeArray()
    san.on_access(0, array, 0, "add")
    san.on_access(1, array, 0, "min")
    assert len(san.races) == 1


def test_unordered_put_put_races_and_same_rank_does_not():
    san = Sanitizer(2, sim=_FakeSim())
    array = _FakeArray()
    san.on_access(0, array, 0, "put")
    san.on_access(0, array, 0, "put")  # same rank: fine
    assert san.races == []
    san.on_access(1, array, 0, "put")  # unordered peer
    assert len(san.races) == 1


def test_message_join_orders_accesses():
    san = Sanitizer(2, sim=_FakeSim())
    array = _FakeArray()
    san.on_access(0, array, 0, "put")
    packet = new_packet(PacketKind.REQUEST, 0, 1)
    san.on_send(0, packet)            # rank 0 sends after its write...
    assert packet.clock is not None   # ...its clock rides the packet...
    san.on_recv(1, packet)            # ...and rank 1 receives it.
    san.on_access(1, array, 0, "read")
    assert san.races == []  # happens-before established
