"""Campaign manager, result store, and crash-safety regressions.

The campaign layer's contract is that no completed point is ever lost:
a SIGKILLed worker, an interrupted campaign, or a mid-sweep crash must
leave every finished point durable (store row and/or cache entry), and
the rerun must recompute exactly the points that never completed —
producing artifacts byte-identical to an uninterrupted run.
"""

import json
import math
import os
import signal
import sqlite3
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.am.tuning import TuningKnobs
from repro.apps import RadixSort
from repro.cluster.machine import Cluster
from repro.harness import (CampaignInterrupted, CampaignSpec, ResultStore,
                           RunCache, ensemble_from_store, render_campaign,
                           run_campaign, run_sweep, sweep_from_store)
from repro.harness import parallel as parallel_mod
from repro.harness.parallel import execute_point
from repro.harness.runcache import run_key_spec
from repro.harness.store import STORE_SCHEMA_VERSION
from repro.network.faults import DelaySpike, FaultPlan
from repro.network.loggp import LogGPParams


def tiny_radix():
    return RadixSort(keys_per_proc=32)


def sweep_fingerprint(sweep):
    """Everything determinism guarantees: runtimes, events, failures."""
    return [(p.value,
             p.runtime_us,
             p.result.events_processed if p.completed else None,
             p.failure is not None)
            for p in sweep.points]


def base_spec():
    return run_key_spec(tiny_radix(), Cluster(
        4, LogGPParams.berkeley_now(), TuningKnobs(), seed=0))


# ---------------------------------------------------------------------------
# Crashing execute_point stand-ins.  Module-level so fork workers can
# unpickle them by qualified name; configured through module globals,
# which the forked children inherit.
# ---------------------------------------------------------------------------

#: Sweep value whose worker SIGKILLs itself.  Last in every grid below,
#: and the sleep lets the other workers finish and the parent drain
#: their results first, so the crash point is deterministic.
_CRASH_VALUE = 42.9
_CRASH_FLAG = {"path": None}


def _kill_worker_on_marker(task):
    if task.value == _CRASH_VALUE:
        time.sleep(0.6)
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_point(task)


def _kill_worker_once(task):
    """SIGKILL on the marker value only on the first encounter."""
    if task.value == _CRASH_VALUE and not os.path.exists(
            _CRASH_FLAG["path"]):
        open(_CRASH_FLAG["path"], "w").close()
        time.sleep(0.6)
        os.kill(os.getpid(), signal.SIGKILL)
    return execute_point(task)


#: Sweep value whose worker raises outside the failure taxonomy.  It
#: fails at once while every other point sleeps first, so all of them
#: finish *after* the error reached the parent.
_RAISE_VALUE = 12.9
_RAISE_GRID = (2.9, _RAISE_VALUE, 22.9, 32.9)


def _raise_on_marker(task):
    if task.value == _RAISE_VALUE:
        raise ValueError("not in the failure taxonomy")
    time.sleep(0.5)
    return execute_point(task)


# ---------------------------------------------------------------------------
# Satellite 1 regression: a worker crash must not discard the points
# that already finished (the old engine cached only after the batch).
# ---------------------------------------------------------------------------

def test_worker_sigkill_keeps_completed_points(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel_mod, "execute_point",
                        _kill_worker_on_marker)
    cache = RunCache(tmp_path)
    grid = (2.9, 22.9, _CRASH_VALUE)
    with pytest.raises(BrokenProcessPool):
        run_sweep(tiny_radix(), 4, "overhead", grid,
                       cache=cache, jobs=2)
    # The two points that completed before the crash are already on
    # disk — this is the regression: they used to be lost.
    assert len(cache) == 2

    monkeypatch.undo()  # rerun with the real execute_point
    rerun = run_sweep(tiny_radix(), 4, "overhead", grid,
                           cache=cache, jobs=2)
    assert cache.hits == 2  # only the crashed point was resimulated
    assert cache.misses == 4  # 3 cold probes + the crashed point's rerun
    serial = run_sweep(tiny_radix(), 4, "overhead", grid)
    assert sweep_fingerprint(rerun) == sweep_fingerprint(serial)


def test_sweep_requeues_after_worker_crash(tmp_path, monkeypatch):
    """The sweeps gain what only campaigns had: a worker killed once
    costs a re-queue, not the call."""
    _CRASH_FLAG["path"] = str(tmp_path / "crashed.flag")
    monkeypatch.setattr(parallel_mod, "execute_point", _kill_worker_once)
    grid = (2.9, 22.9, _CRASH_VALUE)
    sweep = run_sweep(tiny_radix(), 4, "overhead", grid, jobs=2)
    assert os.path.exists(_CRASH_FLAG["path"])  # a worker did die

    monkeypatch.undo()
    serial = run_sweep(tiny_radix(), 4, "overhead", grid)
    assert sweep_fingerprint(sweep) == sweep_fingerprint(serial)


def test_raising_worker_keeps_points_that_finish_after_it(tmp_path,
                                                          monkeypatch):
    monkeypatch.setattr(parallel_mod, "execute_point", _raise_on_marker)
    cache = RunCache(tmp_path)
    with pytest.raises(ValueError, match="not in the failure taxonomy"):
        run_sweep(tiny_radix(), 4, "overhead", _RAISE_GRID,
                       cache=cache, jobs=2)
    assert len(cache) == 3  # deferred, then re-raised after the drain


def test_serial_sweep_caches_per_point(tmp_path, monkeypatch):
    cache = RunCache(tmp_path)
    seen = []
    real_put = RunCache.put

    def tracking_put(self, spec, result=None, failure=None):
        real_put(self, spec, result=result, failure=failure)
        seen.append(len(self))

    monkeypatch.setattr(RunCache, "put", tracking_put)
    run_sweep(tiny_radix(), 4, "overhead", (2.9, 22.9),
                   cache=cache)
    # Each point landed the moment it finished, not as a final batch.
    assert seen == [1, 2]


# ---------------------------------------------------------------------------
# Satellite 3: address-bearing reprs must fail fast, not silently miss.
# ---------------------------------------------------------------------------

def test_key_for_rejects_address_bearing_repr():
    spec = base_spec()
    spec["app"]["kwargs"]["rng"] = object()  # default repr: <... at 0x...>
    with pytest.raises(ValueError,
                       match=r"spec\.app\.kwargs\.rng .* address"):
        RunCache.key_for(spec)


def test_key_for_allows_address_like_strings():
    # String *content* that merely looks like an address is JSON-native
    # and perfectly stable — only repr fallbacks are rejected.
    spec = base_spec()
    spec["app"]["kwargs"]["note"] = "<thing object at 0xdeadbeef>"
    assert RunCache.key_for(spec) == RunCache.key_for(spec)


def test_campaign_points_fail_fast_on_unstable_app_kwargs(monkeypatch):
    import repro.harness.runcache as runcache_mod
    real = runcache_mod.app_fingerprint

    def poisoned(app):
        fingerprint = real(app)
        fingerprint["kwargs"]["handle"] = object()
        return fingerprint

    monkeypatch.setattr(runcache_mod, "app_fingerprint", poisoned)
    spec = CampaignSpec(name="bad", apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", (2.9,)),), scale=0.05)
    # The error surfaces at expansion time, before any simulation.
    with pytest.raises(ValueError, match="address-bearing repr"):
        spec.points()


# ---------------------------------------------------------------------------
# Satellite 2: orphaned temp files.
# ---------------------------------------------------------------------------

def test_clear_removes_orphaned_tmps(tmp_path):
    cache = RunCache(tmp_path)
    run_sweep(tiny_radix(), 2, "overhead", (2.9,), cache=cache)
    (tmp_path / "orphan123.tmp").write_text("half-written")
    assert cache.clear() == 2  # one entry + one orphan
    assert len(cache) == 0
    assert not (tmp_path / "orphan123.tmp").exists()


def test_sweep_stale_tmps_is_age_gated(tmp_path):
    cache = RunCache(tmp_path)
    fresh = tmp_path / "fresh.tmp"
    fresh.write_text("worker mid-put")
    stale = tmp_path / "stale.tmp"
    stale.write_text("orphan")
    old = time.time() - 7200
    os.utime(stale, (old, old))
    assert cache.sweep_stale_tmps(older_than_s=3600.0) == 1
    assert fresh.exists()  # too young to be an orphan
    assert not stale.exists()


# ---------------------------------------------------------------------------
# Result store.
# ---------------------------------------------------------------------------

def test_store_roundtrip_result_and_failure_rows(tmp_path):
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    spec = base_spec()
    key = RunCache.key_for(spec)
    with ResultStore(tmp_path / "s.sqlite") as store:
        store.put("c", key, app="Radix", n_nodes=4, parameter="overhead",
                  value=2.9, seed=0, spec=spec, result=result)
        store.put("c", "k-na", app="Radix", n_nodes=4,
                  parameter="overhead", value=102.9, seed=0, spec=spec,
                  failure="livelock: budget")
        restored, failure = store.get("c", key)
        assert failure is None
        assert restored.runtime_us == result.runtime_us
        assert restored.events_processed == result.events_processed
        assert (restored.stats.matrix == result.stats.matrix).all()
        assert store.get("c", "k-na") == (None, "livelock: budget")
        assert store.get("c", "absent") is None
        assert store.hits == 2 and store.misses == 1
        assert store.keys("c") == {key, "k-na"}
        assert store.count("c") == 2 and len(store) == 2
        assert store.count_failures("c") == 1
        assert store.campaigns() == ["c"]
        points = list(store.points("c"))
        assert [p.completed for p in points] == [True, False]
        with pytest.raises(ValueError, match="exactly one"):
            store.put("c", "k-bad", app="Radix", n_nodes=4,
                      parameter="overhead", value=0.0, seed=0, spec=spec)


def test_store_put_is_idempotent_per_key(tmp_path):
    spec = base_spec()
    with ResultStore(tmp_path / "s.sqlite") as store:
        for _ in range(2):  # INSERT OR REPLACE: reruns never duplicate
            store.put("c", "k", app="Radix", n_nodes=4,
                      parameter="overhead", value=2.9, seed=0, spec=spec,
                      failure="budget exceeded: x")
        assert store.count("c") == 1


def test_store_schema_version_mismatch_refuses(tmp_path):
    path = tmp_path / "s.sqlite"
    ResultStore(path).close()
    db = sqlite3.connect(path)
    with db:
        db.execute("UPDATE meta SET value='999' WHERE key='schema'")
    db.close()
    with pytest.raises(ValueError, match="schema v999"):
        ResultStore(path)
    assert STORE_SCHEMA_VERSION != 999


# ---------------------------------------------------------------------------
# Campaign spec: validation and JSON round trip.
# ---------------------------------------------------------------------------

def test_campaign_spec_validation():
    good = dict(apps=("Radix",), node_counts=(4,),
                dials=(("overhead", (2.9,)),))
    with pytest.raises(ValueError, match="non-empty name"):
        CampaignSpec(name="", **good)
    with pytest.raises(ValueError, match="unknown machine"):
        CampaignSpec(name="c", machine="cray-t3d", **good)
    with pytest.raises(ValueError, match="unknown dial"):
        CampaignSpec(name="c", apps=("Radix",), node_counts=(4,),
                     dials=(("frobnication", (1.0,)),))
    with pytest.raises(ValueError, match="no values"):
        CampaignSpec(name="c", apps=("Radix",), node_counts=(4,),
                     dials=(("overhead", ()),))
    spec = CampaignSpec(name="c", **good)
    assert spec.values_for("overhead") == (2.9,)
    with pytest.raises(KeyError, match="no dial"):
        spec.values_for("gap")


@pytest.mark.parametrize("change, said", [
    ({"apps": ("Radix", "Connect", "Radix")}, "names app 'Radix' twice"),
    ({"node_counts": (4, 8, 4)}, "names node count 4 twice"),
    ({"dials": (("overhead", (2.9, 12.9)), ("overhead", (2.9, 52.9)))},
     "names dial 'overhead' twice"),
    ({"seeds": (0, 0)}, "names seed 0 twice"),
    ({"apps": ("Radx",)}, "unknown application names ['Radx']"),
], ids=["app", "node-count", "dial", "seed", "unknown-app"])
def test_campaign_spec_refuses_a_repeat_or_an_unknown_app_by_name(change,
                                                                  said):
    """A repeated dial simulated one grid and rendered it twice, a
    repeated seed read as a failed one, and an unknown app raised only
    once ``points()`` ran."""
    good = dict(name="c", apps=("Radix",), node_counts=(4,),
                dials=(("overhead", (2.9,)),))
    with pytest.raises(ValueError) as refused:
        CampaignSpec(**{**good, **change})
    assert said in str(refused.value)


@pytest.mark.parametrize("argv, said", [
    (["--render", "r.md"], "--render needs --campaign"),
    (["--bench-out", "b.json"], "--bench-out needs --campaign"),
    (["--store", "s.sqlite"], "--store needs --campaign or --store-gc"),
    (["--store-gc", "--store", "s.sqlite", "--render", "r.md"],
     "--render needs --campaign"),
    (["--prune", "old"], "--prune needs --store-gc"),
    (["--campaign", "absent.json", "--store", "s.sqlite"],
     "No such file"),
    (["--campaign", "spec.json", "--store", "s.sqlite"],
     "names seed 0 twice"),
    (["--campaign", "typo.json", "--store", "s.sqlite"],
     "unknown application names ['Radx']"),
    # The report's flags used to be dropped: the campaign ran without
    # them.
    (["--campaign", "spec.json", "--store", "s.sqlite", "--only", "table2"],
     "--only writes the report"),
    (["--campaign", "spec.json", "--store", "s.sqlite", "--out", "r.md"],
     "--out writes the report"),
    (["--campaign", "spec.json", "--store", "s.sqlite", "--apps", "Radix"],
     "--apps writes the report"),
    (["--store-gc", "--store", "s.sqlite", "--only", "table2"],
     "--only writes the report"),
    (["--store-gc", "--store", "s.sqlite", "--out", "r.md"],
     "--out writes the report"),
    (["--store-gc", "--store", "s.sqlite", "--apps", "Radix"],
     "--apps writes the report"),
    # Knobs that are now fixed: naming one is refused, not ignored.
    (["--campaign", "retired_fault.json", "--store", "s.sqlite"],
     "fault plans no longer take 'salt'"),
    (["--campaign", "retired_workload.json", "--store", "s.sqlite"],
     "kvserve no longer takes 'write_ratio'"),
], ids=["render", "bench-out", "store", "gc-render", "prune", "missing",
        "repeat", "unknown-app", "only", "out", "apps", "gc-only", "gc-out",
        "gc-apps", "retired-fault", "retired-workload"])
def test_the_campaign_cli_refuses_with_exit_2_before_opening_a_store(
        argv, said, tmp_path, monkeypatch, capsys):
    from repro.harness.__main__ import main
    monkeypatch.chdir(tmp_path)
    good = dict(name="c", apps=["Radix"], node_counts=[4],
                dials=[["overhead", [2.9]]], scale=0.05)
    (tmp_path / "spec.json").write_text(json.dumps({**good,
                                                    "seeds": [0, 0]}))
    (tmp_path / "typo.json").write_text(json.dumps({**good,
                                                    "apps": ["Radx"]}))
    (tmp_path / "retired_fault.json").write_text(json.dumps({
        **good, "faults": {"drop_rate": 0.01, "salt": 3}}))
    (tmp_path / "retired_workload.json").write_text(json.dumps({
        **good, "apps": ["kvserve"], "workload": {
            "app": "kvserve", "write_ratio": 0.3}}))
    with pytest.raises(SystemExit) as refused:
        main(argv + ["--no-cache"])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert said in err.splitlines()[-1]
    assert not (tmp_path / "s.sqlite").exists()


def test_campaign_spec_json_round_trip_with_faults_and_coll():
    spec = CampaignSpec(
        name="rt", apps=("Radix", "Connect"), node_counts=(4, 8),
        dials=(("overhead", (2.9, 22.9)), ("drop_rate", (0.0, 0.01))),
        seeds=(0, 7), scale=0.25, machine="meiko-cs2",
        run_limit_us=1e6, livelock_limit=5000, window=4,
        faults=FaultPlan(
            drop_rate=0.001, drop_kinds=("bulk",),
            spikes=(DelaySpike(node=1, start_us=10.0, duration_us=5.0),)))
    round_tripped = CampaignSpec.from_json(spec.to_json())
    assert round_tripped == spec
    # And the round trip preserves point identity, not just equality.
    assert ([p.key for p in round_tripped.points()]
            == [p.key for p in spec.points()])
    # Spec files written while CampaignSpec still had an ``engine``
    # field keep loading, to the same points.
    legacy = CampaignSpec.from_dict({**spec.to_dict(),
                                     "engine": "calendar"})
    assert legacy == spec
    assert ([p.key for p in legacy.points()]
            == [p.key for p in spec.points()])
    # So do files written while it had a ``coll`` tuning config, as long
    # as they never set one; a set one has no meaning any more.
    legacy = CampaignSpec.from_dict({**spec.to_dict(), "coll": None})
    assert ([p.key for p in legacy.points()]
            == [p.key for p in spec.points()])
    with pytest.raises(ValueError, match="coll"):
        CampaignSpec.from_dict({**spec.to_dict(),
                                "coll": {"policy": "model"}})
    # Every fault plan the older code wrote carries an empty
    # ``slowdowns`` and a zero ``salt``: those still load, to the same
    # points; a set one has no meaning any more.
    older = {**spec.to_dict(), "faults": {**spec.to_dict()["faults"],
                                          "slowdowns": [], "salt": 0}}
    assert ([p.key for p in CampaignSpec.from_dict(older).points()]
            == [p.key for p in spec.points()])
    for retired, value in (("salt", 3), ("slowdowns", [{
            "node": 2, "start_us": 0.0, "duration_us": 50.0,
            "factor": 2.0}])):
        with pytest.raises(ValueError,
                           match=f"no longer take '{retired}'"):
            CampaignSpec.from_dict({**older, "faults": {
                **older["faults"], retired: value}})


@pytest.mark.parametrize("key", ["seed", "scle"])
def test_campaign_spec_refuses_a_misspelled_key_by_name(key):
    # ``seed`` for ``seeds`` would run seed 0 only, and ``scle`` for
    # ``scale`` would run every app at scale 1.0.
    data = {"name": "typo", "apps": ["Radix"], "node_counts": [4],
            "dials": [["overhead", [2.9]]], key: [5] if key == "seed" else 0.1}
    with pytest.raises(ValueError, match=f"unknown campaign spec key.*'{key}'"):
        CampaignSpec.from_dict(data)


@pytest.mark.parametrize("dial,values,bad", [
    ("overhead", "[2.9, NaN]", "nan"),
    ("bulk_mb_s", "[38.0, NaN]", "nan"),
    ("gap", "[5.8, Infinity]", "inf"),
])
def test_campaign_spec_rejects_non_finite_dial_values(dial, values, bad):
    text = (f'{{"name": "nf", "apps": ["Radix"], "node_counts": [4], '
            f'"dials": [["{dial}", {values}]]}}')
    with pytest.raises(ValueError, match=f"dial '{dial}' .* {bad}"):
        CampaignSpec.from_json(text)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1],
                         ids=["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("field", ["livelock_limit", "scale",
                                   "run_limit_us", "window"])
def test_a_bad_livelock_limit_or_scale_is_refused_by_name(field, bad):
    # A NaN failed-lock budget never trips the guard's ``>``, a
    # non-positive scale runs every app at its floor size, and a NaN
    # time limit fails mid-drain: each is refused before any run, naming
    # the field.  The machine fields are refused by Cluster's own check.
    data = {"name": "bad", "apps": ["Radix"], "node_counts": [4],
            "dials": [["overhead", [2.9]]], field: bad}
    with pytest.raises(ValueError, match=field):
        CampaignSpec.from_dict(data)
    if field != "scale":
        with pytest.raises(ValueError, match=field):
            Cluster(4, **{field: bad})


def test_campaign_points_order_and_keys_are_deterministic():
    spec = CampaignSpec(name="order", apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", (2.9, 22.9)),), scale=0.05)
    points = spec.points()
    assert [(p.parameter, p.value) for p in points] == \
        [("overhead", 2.9), ("overhead", 22.9)]
    assert points[0].key != points[1].key
    assert points[0].key == RunCache.key_for(points[0].spec)


# ---------------------------------------------------------------------------
# Tentpole: resumable runner.
# ---------------------------------------------------------------------------

def small_campaign(name, values=(2.9, 12.9, 22.9, 32.9)):
    return CampaignSpec(name=name, apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", values),), scale=0.05)


def test_interrupted_campaign_resumes_byte_identical(tmp_path):
    """Satellite 4: the crash-resume differential."""
    spec = small_campaign("diff")
    with ResultStore(tmp_path / "full.sqlite") as full:
        uninterrupted = run_campaign(spec, full, jobs=1)
        assert uninterrupted.computed_points == 4
        reference = render_campaign([spec], full)

    with ResultStore(tmp_path / "crash.sqlite") as store:
        with pytest.raises(CampaignInterrupted):
            run_campaign(spec, store, jobs=1, interrupt_after=2)
        assert store.count("diff") == 2  # interrupted half-way, durable
        # Query-side generation refuses to render the partial series.
        with pytest.raises(KeyError, match="missing 2/4"):
            sweep_from_store(store, spec, "Radix", 4, "overhead")

        resumed = run_campaign(spec, store, jobs=1)
        assert resumed.resumed_points == 2  # skipped via the store...
        assert resumed.computed_points == 2  # ...recomputed only the rest
        assert render_campaign([spec], store) == reference


def test_campaign_resumes_across_store_sessions(tmp_path):
    spec = small_campaign("sessions", values=(2.9, 22.9))
    with ResultStore(tmp_path / "s.sqlite") as store:
        run_campaign(spec, store, jobs=1)
    with ResultStore(tmp_path / "s.sqlite") as store:  # fresh connection
        report = run_campaign(spec, store, jobs=1)
        assert report.resumed_points == 2
        assert report.computed_points == 0


def test_campaign_cache_fills_store_without_simulating(tmp_path):
    spec = small_campaign("cachefill", values=(2.9, 22.9))
    cache = RunCache(tmp_path / "cache")
    with ResultStore(tmp_path / "a.sqlite") as store:
        run_campaign(spec, store, cache=cache, jobs=1)
    # A second store over the same grid is filled purely from the cache.
    with ResultStore(tmp_path / "b.sqlite") as store:
        report = run_campaign(spec, store, cache=cache, jobs=1)
        assert report.cache_hits == 2
        assert report.computed_points == 0
        assert store.count("cachefill") == 2


def test_run_campaign_requeues_after_worker_crash(tmp_path, monkeypatch):
    _CRASH_FLAG["path"] = str(tmp_path / "crashed.flag")
    monkeypatch.setattr(parallel_mod, "execute_point", _kill_worker_once)
    spec = small_campaign("requeue", values=(2.9, 22.9, _CRASH_VALUE))
    with ResultStore(tmp_path / "s.sqlite") as store:
        report = run_campaign(spec, store, jobs=2)
        # The crash broke the first pool; the lost task(s) were re-queued
        # on a fresh one and the campaign still finished in one call.
        assert report.requeued_points >= 1
        assert report.computed_points == 3
        assert store.count("requeue") == 3
        assert os.path.exists(_CRASH_FLAG["path"])


def test_campaign_keeps_points_that_finish_after_a_raising_worker(
        tmp_path, monkeypatch):
    """The campaign's own pool loop used to leave ``as_completed`` on
    the first non-crash exception and drop every later result: 0 of 3."""
    monkeypatch.setattr(parallel_mod, "execute_point", _raise_on_marker)
    spec = small_campaign("raise", values=_RAISE_GRID)
    cache = RunCache(tmp_path / "cache")
    with ResultStore(tmp_path / "s.sqlite") as store:
        with pytest.raises(ValueError, match="not in the failure taxonomy"):
            run_campaign(spec, store, cache=cache, jobs=2)
        assert store.count("raise") == 3
    assert len(cache) == 3


def test_campaign_report_bench_payload(tmp_path):
    spec = small_campaign("bench", values=(2.9, 22.9))
    with ResultStore(tmp_path / "s.sqlite") as store:
        report = run_campaign(spec, store, jobs=1)
    payload = report.to_dict()
    assert payload["schema"] == "repro-campaign-bench-v1"
    assert payload["campaign"] == "bench"
    assert payload["total_points"] == 2
    assert payload["computed_points"] == 2
    assert payload["resumed_points"] == 0
    assert payload["points_per_sec"] >= 0.0
    assert "bench" in report.describe()


def test_render_campaign_writes_na_for_a_failed_baseline(tmp_path):
    """A budget too small for the baseline: both rows are stored as
    N/A, and the render says so instead of raising."""
    spec = CampaignSpec(name="t", apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", (2.9, 52.9)),), scale=0.02,
                        run_limit_us=50.0)
    with ResultStore(tmp_path / "s.sqlite") as store:
        assert run_campaign(spec, store, jobs=1).na_points == 2
        text = render_campaign([spec], store)
    assert "| Radix | N/A | 2 |" in text


def test_campaign_cli_resumes_every_point_and_renders_identically(
        tmp_path, capsys):
    """``python -m repro.harness --campaign``, run twice on one spec
    file and store: the second run computes nothing."""
    from repro.harness.__main__ import main
    spec = tmp_path / "spec.json"
    spec.write_text(CampaignSpec(
        name="cli", apps=("Radix",), node_counts=(4,), scale=0.05,
        dials=(("overhead", (2.9, 12.9)), ("gap", (5.8, 55.8)))).to_json())
    runs = []
    for run in ("first", "second"):
        render, bench = tmp_path / f"{run}.md", tmp_path / f"{run}.json"
        assert main(["--campaign", str(spec),
                     "--store", str(tmp_path / "s.sqlite"),
                     "--render", str(render), "--bench-out", str(bench),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--jobs", "1"]) == 0
        runs.append((render.read_text(), json.loads(bench.read_text())))
    capsys.readouterr()
    (first_text, first), (second_text, second) = runs
    assert (first["total_points"], first["resumed_points"],
            first["computed_points"]) == (3, 0, 3)  # one shared baseline
    assert (second["total_points"], second["resumed_points"],
            second["computed_points"]) == (3, 3, 0)
    for bench in (first, second):
        assert bench["total_points"] == (bench["resumed_points"]
                                         + bench["cache_hits"]
                                         + bench["computed_points"])
    assert second_text == first_text
    assert "### overhead @ 4 nodes" in first_text \
        and "### gap @ 4 nodes" in first_text


# ---------------------------------------------------------------------------
# Query side: store-generated sweeps match engine-generated ones.
# ---------------------------------------------------------------------------

def test_ensemble_from_store_mean_and_ci(tmp_path):
    spec = CampaignSpec(name="ens", apps=("Radix",), node_counts=(4,),
                        dials=(("overhead", (2.9, 12.9)),),
                        scale=0.05, seeds=(0, 7))
    with ResultStore(tmp_path / "s.sqlite") as store:
        run_campaign(spec, store, jobs=1)
        ens = ensemble_from_store(store, spec, "Radix", 4, "overhead")
        # Cross-check against the per-seed series the ensemble is built
        # from: mean of each seed's own slowdown, CI from their spread.
        per_seed = [sweep_from_store(store, spec, "Radix", 4, "overhead",
                                     seed=s).slowdowns()
                    for s in spec.seeds]
        means = ens.mean_slowdowns()
        widths = ens.ci_halfwidths()
        for i, value in enumerate(ens.values):
            samples = [s[i] for s in per_seed]
            assert means[i] == pytest.approx(sum(samples) / len(samples))
        assert means[0] == pytest.approx(1.0)  # baseline of each seed
        assert widths[0] == pytest.approx(0.0)
        assert all(wd >= 0.0 for wd in widths)
        rows = ens.rows()
        assert [r["completed_seeds"] for r in rows] == [2, 2]
        # The rendered campaign carries the ensemble table only for
        # multi-seed specs.
        text = render_campaign([spec], store)
        assert "Seed ensemble (2 seeds" in text
    single = small_campaign("one", values=(2.9, 12.9))
    with ResultStore(tmp_path / "one.sqlite") as store:
        run_campaign(single, store, jobs=1)
        assert "Seed ensemble" not in render_campaign([single], store)


def test_multi_dial_campaign_shares_its_baseline(tmp_path):
    """Every dial's first value is the unmodified machine: one run
    key, one simulation, one store row — and every dial still renders."""
    spec = CampaignSpec(name="two-dials", apps=("Radix",),
                        node_counts=(4,), scale=0.05,
                        dials=(("overhead", (2.9, 12.9)),
                               ("gap", (5.8, 55.8))))
    points = spec.points()
    assert len(points) == 4
    assert points[0].key == points[2].key  # the shared baseline
    with ResultStore(tmp_path / "s.sqlite") as store:
        report = run_campaign(spec, store, jobs=1)
        assert (report.total_points, report.computed_points) == (3, 3)
        assert store.count(spec.name) == 3
        resumed = run_campaign(spec, store, jobs=1)
        assert (resumed.total_points, resumed.resumed_points,
                resumed.computed_points) == (3, 3, 0)
        for parameter, _values in spec.dials:
            sweep = sweep_from_store(store, spec, "Radix", 4, parameter)
            assert sweep.slowdowns()[0] == 1.0
            assert sweep.slowdowns()[1] > 1.0
        assert sweep.points[0].runtime_us == store.get(
            spec.name, points[0].key)[0].runtime_us
        text = render_campaign([spec], store)
        assert "overhead" in text and "gap" in text
        # A point that truly is absent still raises.
        wider = CampaignSpec.from_dict(
            {**spec.to_dict(), "dials": [["overhead", [2.9, 12.9]],
                                         ["gap", [5.8, 55.8, 105.8]]]})
        with pytest.raises(KeyError, match="missing 1/3"):
            sweep_from_store(store, wider, "Radix", 4, "gap")


def test_sweep_from_store_matches_direct_sweep(tmp_path):
    values = (2.9, 12.9, 22.9)
    spec = small_campaign("match", values=values)
    with ResultStore(tmp_path / "s.sqlite") as store:
        run_campaign(spec, store, jobs=1)
        from_store = sweep_from_store(store, spec, "Radix", 4, "overhead")
    app = spec.points()[0].task.app
    direct = run_sweep(app, 4, "overhead", values)
    assert sweep_fingerprint(from_store) == sweep_fingerprint(direct)
    assert from_store.slowdowns() == direct.slowdowns()
