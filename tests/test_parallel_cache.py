"""Parallel sweep engine, on-disk run cache, and determinism regression.

The parallel harness promises results *bit-identical* to the serial
path (same seed → same ``runtime_us`` and ``events_processed``), the
same ``N/A`` handling for livelocked / over-budget points, and that a
cache hit reproduces the original run's counters exactly.
"""

import json
import pickle
from pathlib import Path

import pytest

from repro.am.tuning import TuningKnobs
from repro.apps import Barnes, RadixBulk, RadixSort, default_suite
from repro.cluster.machine import Cluster
from repro.coll.bench import CollectiveBench
from repro.harness import (DIALS, Dial, Plan, PointTask, RunCache,
                           experiments, run_plans, run_points, run_sweep)
from repro.harness import parallel as parallel_mod
from repro.harness import runcache as runcache_mod
from repro.harness.parallel import default_jobs
from repro.harness.runcache import constructor_params, run_key_spec
from repro.harness.sweeps import SweepPoint, SweepResult
from repro.network.faults import FaultPlan
from repro.network.loggp import LogGPParams
from repro.sanitize.cli import load_app
from repro.serve import FanoutServe, KVServe
from repro.serve.apps import ServingApp


def tiny_radix():
    return RadixSort(keys_per_proc=32)


def sweep_fingerprint(sweep):
    """Everything determinism guarantees: runtimes, events, failures."""
    return [(p.value,
             p.runtime_us,
             p.result.events_processed if p.completed else None,
             p.failure is not None)
            for p in sweep.points]


# ---------------------------------------------------------------------------
# Determinism regression.
# ---------------------------------------------------------------------------

def test_same_config_runs_identically_twice():
    knobs = TuningKnobs.added_overhead(10.0)
    first = Cluster(n_nodes=4, knobs=knobs, seed=3).run(tiny_radix())
    second = Cluster(n_nodes=4, knobs=knobs, seed=3).run(tiny_radix())
    assert first.runtime_us == second.runtime_us
    assert first.events_processed == second.events_processed
    assert (first.stats.matrix == second.stats.matrix).all()


def test_parallel_sweep_bit_identical_to_serial():
    serial = run_sweep(tiny_radix(), 4, "overhead", (2.9, 22.9, 52.9),
                       seed=7)
    parallel = run_sweep(tiny_radix(), 4, "overhead", (2.9, 22.9, 52.9),
                         seed=7, jobs=2)
    assert sweep_fingerprint(serial) == sweep_fingerprint(parallel)


def test_run_sweep_parallel_defaults_match_serial():
    added = Dial("added_overhead", "added overhead (us)", (0.0, 20.0),
                 lambda value, app, params, knobs, faults:
                 (app, knobs.with_changes(delta_o=value), faults))
    serial = run_sweep(tiny_radix(), 4, added)
    parallel = run_sweep(tiny_radix(), 4, added, jobs=default_jobs())
    assert sweep_fingerprint(serial) == sweep_fingerprint(parallel)


# ---------------------------------------------------------------------------
# The one drain, called directly.
# ---------------------------------------------------------------------------

def radix_tasks(added=(100.0, 0.0, 20.0), **cluster):
    """Longest run first, so pooled completion order != task order."""
    return [PointTask(tiny_radix(),
                      Cluster(4, knobs=TuningKnobs.added_overhead(delta),
                              **cluster), value=delta)
            for delta in added]


def test_run_points_returns_task_order_serial_and_pooled():
    tasks = radix_tasks()
    serial = run_points(tasks)
    pooled = run_points(tasks, jobs=2)
    assert [p.value for p in serial] == [100.0, 0.0, 20.0]
    assert sweep_fingerprint(SweepResult("Radix", 4, "o", serial)) \
        == sweep_fingerprint(SweepResult("Radix", 4, "o", pooled))


def test_run_points_raising_done_keeps_what_already_landed(tmp_path):
    cache = RunCache(tmp_path)
    tasks = radix_tasks()
    seen = []

    def done(index, point, from_cache):
        seen.append((index, from_cache))
        if len(seen) == 2:
            raise RuntimeError("stop after the second point")

    with pytest.raises(RuntimeError, match="stop after the second"):
        run_points(tasks, cache=cache, done=done)
    assert seen == [(0, False), (1, False)]
    # Cached before ``done`` was told, so the failure lost nothing...
    assert cache.get(tasks[0].spec) is not None
    assert cache.get(tasks[1].spec) is not None
    # ...and the point after it never ran.
    assert cache.get(tasks[2].spec) is None


def test_run_points_sanitized_task_bypasses_the_cache_both_ways(tmp_path):
    cache = RunCache(tmp_path)
    clean, = radix_tasks(added=(0.0,))
    sanitized, = radix_tasks(added=(0.0,), sanitize=True)
    assert clean.key == sanitized.key  # same run, same identity
    run_points([clean], cache=cache)
    assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
    # The sanitized twin is neither served from that entry (no get)...
    point, = run_points([sanitized], cache=cache)
    assert (cache.hits, cache.misses) == (0, 1)
    assert point.result.sanitizer is not None
    # ...nor written over it (no put).
    cache.clear()
    run_points([sanitized], cache=cache)
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# N/A (livelock and run-budget) points through both engines.
# ---------------------------------------------------------------------------

def test_budget_exceeded_point_is_na_serial_and_parallel():
    baseline = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    limit = baseline.runtime_us * 2.0
    for jobs in (None, 2):
        sweep = run_sweep(tiny_radix(), 4, "overhead", (2.9, 102.9),
                          run_limit_us=limit, jobs=jobs)
        assert sweep.points[0].completed
        assert not sweep.points[1].completed
        assert "budget exceeded" in sweep.points[1].failure
        assert sweep.slowdowns() == [1.0, None]


def test_livelock_point_is_na_serial_and_parallel():
    # The baseline machine peaks at 88 failed lock attempts per rank;
    # +25 us of overhead blows far past it (the paper's Barnes DNF
    # regime), so a 150-attempt budget separates the two points.
    app = Barnes(bodies_per_proc=16, steps=1)
    for jobs in (None, 2):
        sweep = run_sweep(app, 8, "overhead", (2.9, 27.9),
                          seed=21, livelock_limit=150, jobs=jobs)
        assert sweep.points[0].completed
        assert not sweep.points[1].completed
        assert "livelock" in sweep.points[1].failure
        assert sweep.slowdowns() == [1.0, None]


def test_series_raises_clearly_on_failed_baseline():
    sweep = SweepResult(app_name="Radix", n_nodes=4, parameter="overhead")
    sweep.points = [SweepPoint(value=2.9, knobs=TuningKnobs(),
                               failure="livelock: budget"),
                    SweepPoint(value=12.9, knobs=TuningKnobs())]
    with pytest.raises(RuntimeError, match="baseline run did not complete"):
        sweep.series()
    with pytest.raises(RuntimeError, match="baseline run did not complete"):
        sweep.slowdowns()


def test_step_on_empty_heap_raises_clear_error():
    from repro.sim import Simulator
    with pytest.raises(RuntimeError, match="no events to process"):
        Simulator().step()


# ---------------------------------------------------------------------------
# Run cache: miss, hit, invalidation.
# ---------------------------------------------------------------------------

def tiny_kv():
    return KVServe(offered_rps=200_000.0, n_users=5_000,
                   duration_us=8_000.0, max_requests=120, service_us=4.0,
                   key_space=256)


def rerun_fingerprint(sweep):
    """Everything a rerun must repeat, the whole stats record included."""
    return [(p.value, p.runtime_us,
             p.result.events_processed if p.completed else None,
             json.dumps(p.result.stats.to_dict(), sort_keys=True)
             if p.completed else None, p.failure)
            for p in sweep.points]


def _slower_at_the_end(sweep):
    assert sweep.points[-1].runtime_us > sweep.baseline.runtime_us


def _loss_is_retransmitted_and_costs_time(sweep):
    assert sweep.points[-1].result.stats.total_retransmissions > 0
    _slower_at_the_end(sweep)


def _collectives_were_dispatched(sweep):
    assert sweep.points[-1].result.stats.to_dict()["collective_calls"]
    _slower_at_the_end(sweep)


def _every_arrival_is_accounted_for(sweep):
    for point in sweep.points:
        serving = point.result.stats.serving
        assert serving.arrivals == serving.completed + serving.dropped
    assert sweep.baseline.result.stats.serving.completed > 0


#: case -> (app, dial, values, the cluster's other settings, what else
#: must hold of the sweep): every row of DIALS once, a closed app where
#: one will do, and one collective.
RERUNS = {
    "overhead": (tiny_radix, "overhead", (2.9, 22.9), {},
                 _slower_at_the_end),
    "gap": (tiny_radix, "gap", (5.8, 55.0), {}, _slower_at_the_end),
    "latency": (tiny_radix, "latency", (5.0, 55.0), {}, _slower_at_the_end),
    "bulk_mb_s": (lambda: RadixBulk(keys_per_proc=32), "bulk_mb_s",
                  (38.0, 1.0), {}, _slower_at_the_end),
    "occupancy": (tiny_radix, "occupancy", (0.0, 25.0), {},
                  _slower_at_the_end),
    "drop_rate": (tiny_radix, "drop_rate", (0.0, 0.02),
                  {"seed": 3, "faults": FaultPlan(retx_timeout_us=60.0)},
                  _loss_is_retransmitted_and_costs_time),
    "offered_rps": (tiny_kv, "offered_rps", (100_000.0, 1_200_000.0),
                    {"seed": 11}, _every_arrival_is_accounted_for),
    "collective": (lambda: CollectiveBench("allreduce", size=16384,
                                           bulk=True, iterations=2),
                   "bulk_mb_s", (38.0, 5.5, 1.0), {"seed": 11},
                   _collectives_were_dispatched),
}


def test_the_rerun_cases_cover_every_row_of_the_table():
    assert {dial for _app, dial, *_rest in RERUNS.values()} == set(DIALS)


@pytest.mark.parametrize("case", RERUNS)
def test_every_dial_reruns_bit_identically_from_the_cache(case, tmp_path):
    app, dial, values, cluster, also = RERUNS[case]
    cache = RunCache(tmp_path)
    cold = run_sweep(app(), 4, dial, values, cache=cache, **cluster)
    assert (cache.misses, cache.hits, len(cache)) \
        == (len(values), 0, len(values))

    warm = run_sweep(app(), 4, dial, values, cache=cache, **cluster)
    assert (cache.misses, cache.hits) == (len(values), len(values))
    assert rerun_fingerprint(cold) == rerun_fingerprint(warm)
    # Full stats survive the JSON round-trip (Table 5/6 need them).
    assert (warm.points[0].result.stats.matrix
            == cold.points[0].result.stats.matrix).all()
    # finalize() output is deliberately not cached.
    assert warm.points[0].result.output is None
    also(cold)


def test_a_null_plan_baseline_is_the_undialed_baseline_in_the_cache(
        tmp_path):
    cache = RunCache(tmp_path)

    def four_axes():
        sweeps = [run_sweep(tiny_kv(), 4, dial, values, seed=11, cache=cache)
                  for dial, values in (
                      ("overhead", (2.9, 25.0)), ("latency", (5.7, 100.0)),
                      ("drop_rate", (0.0, 0.02)),
                      ("offered_rps", (100_000.0, 1_200_000.0)))]
        for sweep in sweeps:
            _every_arrival_is_accounted_for(sweep)
        return [rerun_fingerprint(sweep) for sweep in sweeps]
    first = four_axes()
    # 7 distinct points: overhead@2.9 and drop_rate@0.0 are the same
    # configuration (baseline knobs, null fault plan), so content
    # addressing serves the second from the first.
    assert (cache.misses, cache.hits) == (7, 1)
    assert four_axes() == first
    assert (cache.misses, cache.hits) == (7, 9)


def test_cache_stores_failures_too(tmp_path):
    cache = RunCache(tmp_path)
    app = Barnes(bodies_per_proc=16, steps=1)
    kwargs = dict(values=(2.9, 27.9), seed=21, livelock_limit=150,
                  cache=cache)
    cold = run_sweep(app, 8, "overhead", **kwargs)
    warm = run_sweep(app, 8, "overhead", **kwargs)
    assert cache.hits == 2
    assert not warm.points[1].completed
    assert warm.points[1].failure == cold.points[1].failure


def test_cache_key_depends_on_full_configuration(tmp_path):
    params = LogGPParams.berkeley_now()
    base = dict(n_nodes=4, params=params, knobs=TuningKnobs(), seed=0)
    key = RunCache.key_for(run_key_spec(tiny_radix(), Cluster(**base)))
    assert key == RunCache.key_for(run_key_spec(tiny_radix(),
                                                Cluster(**base)))

    variations = [
        run_key_spec(tiny_radix(), Cluster(**{**base, "seed": 1})),
        run_key_spec(tiny_radix(), Cluster(**{**base, "n_nodes": 8})),
        run_key_spec(tiny_radix(), Cluster(
            **{**base, "knobs": TuningKnobs.added_gap(5.0)})),
        run_key_spec(RadixSort(keys_per_proc=64), Cluster(**base)),
        run_key_spec(tiny_radix(), Cluster(**base, run_limit_us=10.0)),
        run_key_spec(tiny_radix(), Cluster(**base, livelock_limit=5)),
    ]
    keys = {RunCache.key_for(spec) for spec in variations}
    assert len(keys) == len(variations)  # all distinct...
    assert key not in keys  # ...and none collides with the base


def _all_app_kinds():
    return default_suite(0.1) + [KVServe(), CollectiveBench("allreduce")]


def test_constructor_params_memo_leaves_run_keys_unchanged(monkeypatch):
    def keys():
        return [RunCache.key_for(run_key_spec(
            app, Cluster(4, LogGPParams.berkeley_now(), TuningKnobs())))
            for app in _all_app_kinds()]

    memoised = keys()
    assert len(set(memoised)) == 12
    monkeypatch.setattr(runcache_mod, "constructor_params",
                        constructor_params.__wrapped__)
    assert keys() == memoised


def test_constructor_params_memo_is_per_class_object():
    fixture = (Path(__file__).parent / "fixtures" / "sanitize"
               / "lock_cycle.py")
    first = type(load_app(f"{fixture}:LockCycle"))
    second = type(load_app(f"{fixture}:LockCycle"))
    assert first is not second
    assert (first.__module__, first.__qualname__) \
        == (second.__module__, second.__qualname__)
    constructor_params.cache_clear()
    assert constructor_params(first) == constructor_params(second)
    assert constructor_params.cache_info().currsize == 2
    constructor_params(first)
    assert constructor_params.cache_info().hits == 1


def test_cache_corrupt_entry_counts_as_miss(tmp_path):
    cache = RunCache(tmp_path)
    spec = run_key_spec(tiny_radix(), Cluster(
        4, LogGPParams.berkeley_now(), TuningKnobs(), seed=0))
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    cache.put(spec, result=result)
    path = cache._path(cache.key_for(spec))
    path.write_text("{not json")
    assert cache.get(spec) is None
    # A fresh put repairs the entry.
    cache.put(spec, result=result)
    restored, failure = cache.get(spec)
    assert failure is None
    assert restored.runtime_us == result.runtime_us


def test_cache_truncated_counter_counts_as_miss(tmp_path):
    cache = RunCache(tmp_path)
    spec = run_key_spec(tiny_radix(), Cluster(
        4, LogGPParams.berkeley_now(), TuningKnobs(), seed=0))
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    cache.put(spec, result=result)
    path = cache._path(cache.key_for(spec))
    data = json.loads(path.read_text())
    # Still valid JSON, and one value short of a counter: loading it
    # used to broadcast that value to every node and report a hit.
    data["result"]["stats"]["messages_sent"] = \
        data["result"]["stats"]["messages_sent"][:1]
    path.write_text(json.dumps(data))
    assert cache.get(spec) is None
    assert (cache.hits, cache.misses) == (0, 1)


def test_cache_format_bump_invalidates(tmp_path):
    cache = RunCache(tmp_path)
    spec = run_key_spec(tiny_radix(), Cluster(
        4, LogGPParams.berkeley_now(), TuningKnobs(), seed=0))
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    cache.put(spec, result=result)
    path = cache._path(cache.key_for(spec))
    data = json.loads(path.read_text())
    data["spec"]["format"] = -1
    path.write_text(json.dumps(data))
    assert cache.get(spec) is None


def test_cache_clear(tmp_path):
    cache = RunCache(tmp_path)
    run_sweep(tiny_radix(), 2, "overhead", (2.9,), cache=cache)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Plan, drain, build: what to run apart from running it.
# ---------------------------------------------------------------------------

def artifact_plans():
    """Three artifacts that share Radix's baseline run, and a fourth that
    shares nothing: seven tasks, five distinct runs."""
    radix = dict(n_nodes=4, scale=0.02, names=["Radix"])
    return [
        experiments.table3_baseline_runtimes.plan(
            node_counts=(4,), scale=0.02, names=["Radix"]),
        experiments.sensitivity_figure.plan(
            "overhead", values=(2.9, 22.9), **radix),
        experiments.table6_gap_model.plan(values=(5.8, 55.0), **radix),
        experiments.sensitivity_figure.plan(
            "latency", n_nodes=4, scale=0.02, names=["Connect"],
            values=(5.0, 55.0)),
    ]


def rendered(artifacts):
    """Table 3's runtimes as they are, then the others' renderings."""
    table3, *others = artifacts
    return [table3] + [artifact.render() for artifact in others]


def test_plans_drained_together_render_as_the_eager_calls_do(
        tmp_path, monkeypatch):
    drains = []
    real = parallel_mod.run_points

    def spy(tasks, **kwargs):
        drains.append(len(tasks))
        return real(tasks, **kwargs)

    monkeypatch.setattr(parallel_mod, "run_points", spy)
    radix = dict(n_nodes=4, scale=0.02, names=["Radix"])
    eager = rendered([
        experiments.table3_baseline_runtimes(
            node_counts=(4,), scale=0.02, names=["Radix"]),
        experiments.sensitivity_figure(
            "overhead", values=(2.9, 22.9), **radix),
        experiments.table6_gap_model(values=(5.8, 55.0), **radix),
        experiments.sensitivity_figure(
            "latency", n_nodes=4, scale=0.02, names=["Connect"],
            values=(5.0, 55.0)),
    ])
    assert drains == [1, 2, 2, 2]  # one drain per eager call
    for jobs in (1, 2):
        del drains[:]
        cache = RunCache(tmp_path / f"jobs{jobs}")
        together = run_plans(artifact_plans(), cache=cache, jobs=jobs)
        assert rendered(together) == eager
        # One drain of the five distinct runs: the baseline three of the
        # artifacts share is probed, missed and simulated once.
        assert drains == [5]
        assert (cache.hits, cache.misses, len(cache)) == (0, 5, 5)


def test_planning_simulates_nothing(monkeypatch):
    def run(self, app, **observers):
        raise AssertionError(f"planning ran {app.name}")

    monkeypatch.setattr(Cluster, "run", run)
    plans = artifact_plans() + [
        experiments.figure11_serving.plan(n_nodes=4, scale=0.1),
        experiments.table8_collectives.plan(n_nodes=4, sizes=(32,))]
    assert all(plan.tasks for plan in plans)


def test_sanitized_and_clean_twins_both_run_in_one_drain(tmp_path):
    cache = RunCache(tmp_path)
    clean, = radix_tasks(added=(0.0,))
    sanitized, = radix_tasks(added=(0.0,), sanitize=True)
    assert clean.key == sanitized.key
    plain, checked, again = run_plans(
        [Plan([clean], list), Plan([sanitized], list),
         Plan([clean], list)], cache=cache)
    assert (cache.misses, len(cache)) == (1, 1)  # the clean run, once
    assert plain[0].result.sanitizer is None
    assert checked[0].result.sanitizer is not None
    assert again[0].result is plain[0].result
    assert plain[0].runtime_us == checked[0].runtime_us


def test_a_shared_baseline_keeps_each_sweeps_own_labels():
    """Overhead 2.9, gap 5.8 and drop rate 0.0 are one run under three
    names; each sweep gets it back under its own."""
    radix = tiny_radix()
    overhead, gap, drops = run_plans([
        run_sweep.plan(radix, 4, "overhead", (2.9, 22.9)),
        run_sweep.plan(radix, 4, "gap", (5.8, 55.0)),
        run_sweep.plan(radix, 4, "drop_rate", (0.0, 0.02))])
    assert overhead.values() == [2.9, 22.9]
    assert gap.values() == [5.8, 55.0]
    assert drops.values() == [0.0, 0.02]
    assert overhead.baseline.result is gap.baseline.result \
        is drops.baseline.result
    assert gap.points[1].knobs == TuningKnobs.added_gap(55.0 - 5.8)
    # Several plans at once: finalize's arrays are let go, as the cache
    # lets them go; one plan alone keeps them.
    assert overhead.baseline.result.output is None
    alone = run_sweep(radix, 4, "overhead", (2.9,))
    assert alone.baseline.result.output is not None


# ---------------------------------------------------------------------------
# An app that has run is still a task: it pickles, under the same key.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("app", default_suite(scale=0.05) + [
    CollectiveBench("allreduce", size=64, iterations=1),
    KVServe(max_requests=40, duration_us=2_000.0),
    FanoutServe(max_requests=40, duration_us=2_000.0),
], ids=lambda app: app.name)
def test_app_that_ran_in_process_still_pickles_under_the_same_key(app):
    cluster = Cluster(4, seed=1)
    key = PointTask(app, cluster).key
    result = cluster.run(app)
    # A serially-run task can be re-queued to a pool worker...
    again = pickle.loads(pickle.dumps(PointTask(app, cluster)))
    assert again.key == key == PointTask(app, cluster).key
    assert again.cluster.run(again.app).runtime_us == result.runtime_us
    # ...and a serving app's instruments stay readable after the run.
    if isinstance(app, ServingApp):
        assert app.metrics is result.output
        assert app.metrics.completed > 0
