"""Harness integration of the serving workload (Figure 11 plumbing).

The serving tier must be a first-class citizen of every harness layer
built for the closed suite: sweeps cache by content, campaigns resume
from the store, ``sweep_from_store`` rebuilds byte-identical series,
the store garbage-collects finished campaigns, and the ``figure11``
artifact renders from all of it.  Each test here runs a deliberately
tiny scenario — the contracts, not the numbers, are under test.
"""

import json

import pytest

from repro.cluster.machine import Cluster
from repro.harness import (CampaignSpec, ResultStore, RunCache,
                           run_campaign, sweep_from_store)
from repro.harness.experiments import figure11_serving
from repro.harness.sweeps import DIALS, run_sweep
from repro.serve import KVServe, serving_rows


def tiny_kv(**overrides):
    knobs = dict(offered_rps=200_000.0, n_users=5_000,
                 duration_us=8_000.0, max_requests=120,
                 service_us=4.0, key_space=256)
    knobs.update(overrides)
    return KVServe(**knobs)


WORKLOAD = {"app": "kvserve", "offered_rps": 200_000.0,
            "n_users": 5_000, "duration_us": 8_000.0,
            "max_requests": 120, "service_us": 4.0, "key_space": 256}


# ---------------------------------------------------------------------------
# 1. Sweeping a serving app: axes (caching and bit-identity of the
#    sweep itself: tests/test_parallel_cache.py, the offered_rps case).
# ---------------------------------------------------------------------------

def test_serving_sweep_rejects_unknown_axes():
    with pytest.raises(ValueError, match="parameter"):
        run_sweep(tiny_kv(), 4, "clock_speed", (1.0,))
    assert "offered_rps" in DIALS
    assert "drop_rate" in DIALS


def test_offered_load_axis_rebuilds_the_app_per_point(tmp_path):
    """The offered_rps axis sweeps the client tier, not the machine —
    and the per-point apps must hash to distinct cache keys."""
    cache = RunCache(tmp_path / "cache")
    sweep = run_sweep(tiny_kv(), 4, "offered_rps",
                      (100_000.0, 1_500_000.0), cache=cache)
    rows = serving_rows(sweep)
    assert cache.misses == 2  # distinct keys, no accidental sharing
    light, heavy = rows
    assert light["verdict"] == "ok"
    assert heavy["p99_us"] > light["p99_us"]


def test_drop_rate_axis_inflates_the_tail():
    clean, lossy = serving_rows(run_sweep(
        tiny_kv(), 4, "drop_rate", (0.0, 0.05)))
    assert clean["verdict"] == "ok"
    assert lossy["p999_us"] > clean["p999_us"]


# ---------------------------------------------------------------------------
# 2. Figure 11 artifact.
# ---------------------------------------------------------------------------

def test_figure11_smoke_renders_all_axes_and_knees(tmp_path):
    cache = RunCache(tmp_path / "cache")
    figure = figure11_serving(
        n_nodes=4, scale=0.1, overheads=(2.9, 25.0), latencies=(5.7,),
        drop_rates=(0.0,), offered=(100_000.0,),
        knee_overheads=(2.9,), cache=cache,
        n_users=5_000, duration_us=8_000.0)
    text = figure.render()
    for axis in ("overhead", "latency", "drop_rate", "offered_rps"):
        assert f"serving tail vs {axis}" in text
        assert axis in figure.dial_sweeps
    knees = figure.knees()
    assert set(knees) == {2.9}
    assert knees[2.9] in (None, 100_000.0)
    assert any(row["axis"] == "offered_rps@o=2.9"
               for row in figure.rows())


# ---------------------------------------------------------------------------
# 3. Campaigns over a serving workload.
# ---------------------------------------------------------------------------

def serving_spec(name="serve-test"):
    return CampaignSpec(
        name=name, apps=("kvserve",), node_counts=(4,),
        dials=(("overhead", (2.9, 25.0)),
               ("offered_rps", (100_000.0, 400_000.0))),
        workload=WORKLOAD)


def test_workload_spec_round_trips_through_json():
    spec = serving_spec()
    restored = CampaignSpec.from_json(spec.to_json())
    assert restored == spec
    assert dict(restored.workload) == WORKLOAD


def test_workload_spec_validation():
    with pytest.raises(ValueError, match="app"):
        CampaignSpec(name="x", apps=("kvserve",), node_counts=(4,),
                     dials=(("overhead", (2.9,)),),
                     workload={"offered_rps": 1.0})
    with pytest.raises(ValueError, match="apps"):
        CampaignSpec(name="x", apps=("Radix",), node_counts=(4,),
                     dials=(("overhead", (2.9,)),),
                     workload=WORKLOAD)
    with pytest.raises(ValueError, match="dial"):
        CampaignSpec(name="x", apps=("Radix",), node_counts=(4,),
                     dials=(("offered_rps", (1.0,)),))


def test_serving_campaign_runs_resumes_and_rebuilds(tmp_path):
    spec = serving_spec()
    store_path = tmp_path / "results.sqlite"
    with ResultStore(store_path) as store:
        report = run_campaign(spec, store, jobs=1)
        assert report.total_points == 4
        assert report.computed_points + report.cache_hits == 4
        assert report.na_points == 0
        # Store-side reconstruction carries the serving metrics.
        sweep = sweep_from_store(store, spec, "kvserve", 4, "offered_rps")
        rows = serving_rows(sweep)
        assert [row["value"] for row in rows] == [100_000.0, 400_000.0]
        assert all(row["verdict"] == "ok" for row in rows)
        first = json.dumps(rows, sort_keys=True, default=str)
    with ResultStore(store_path) as store:
        # Resume: everything already stored, nothing re-executed.
        report = run_campaign(spec, store, jobs=1)
        assert report.computed_points == 0 and report.resumed_points == 4
        sweep = sweep_from_store(store, spec, "kvserve", 4, "offered_rps")
        assert json.dumps(serving_rows(sweep), sort_keys=True,
                          default=str) == first


# ---------------------------------------------------------------------------
# 4. Store garbage collection (+ its CLI).
# ---------------------------------------------------------------------------

def seed_store(store):
    """Two one-point campaigns sharing a store."""
    result = Cluster(n_nodes=2, seed=0).run(tiny_kv(max_requests=40))
    for campaign in ("keep", "drop"):
        store.put(campaign, f"{campaign}-key", app="kvserve", n_nodes=2,
                  parameter="overhead", value=2.9, seed=0,
                  spec={"probe": campaign}, result=result)


def test_prune_removes_exactly_one_campaign(tmp_path):
    with ResultStore(tmp_path / "gc.sqlite") as store:
        seed_store(store)
        assert store.count() == 2
        assert store.prune("drop") == 1
        assert store.prune("drop") == 0  # idempotent
        assert store.campaigns() == ["keep"]
        assert store.count("keep") == 1
        store.vacuum()
        assert store.get("keep", "keep-key") is not None


def test_store_gc_cli(tmp_path, capsys):
    from repro.harness.__main__ import main
    path = tmp_path / "gc.sqlite"
    with ResultStore(path) as store:
        seed_store(store)
    assert main(["--store-gc", "--store", str(path),
                 "--prune", "drop"]) == 0
    out = capsys.readouterr().out
    assert "pruned 1 point(s)" in out
    assert "vacuumed" in out
    with ResultStore(path) as store:
        assert store.campaigns() == ["keep"]


def test_store_gc_cli_requires_a_store():
    from repro.harness.__main__ import main
    with pytest.raises(SystemExit):
        main(["--store-gc"])
