"""A simcost recording is a drained point: one simulation per run key.

A :class:`PointTask` with ``record=True`` runs with a dependency
recorder, its point carries the graph, and the run cache keeps the graph
beside the run's entry (``<key>.graph``).  Drained with the sweeps whose
baseline it is, a recording costs no simulation of its own, and a warm
drain reads it back instead of simulating anything.
"""

import dataclasses
import io
import itertools

import numpy as np
import pytest

import repro.network.packet as packet_module
from repro.cluster.machine import Cluster
from repro.cost import CostGraph, record_run
from repro.harness import (PointTask, RunCache, experiments, run_plans,
                           run_points, suite_for)
from tests.test_simcost import Trap
from tests.test_simcost_equivalence import v1_json

NAMES = ["Radix", "Sample"]
SIZE = {"scale": 0.05, "names": NAMES}


@pytest.fixture
def runs(monkeypatch):
    """Every ``Cluster.run`` call in this process, by app name.  Each
    run starts the process-wide transfer-id counter afresh, as a new
    interpreter would, so a graph's ids (and rows) are its run's alone."""
    calls = []
    run = Cluster.run

    def counted(self, app, *args, **kwargs):
        calls.append(app.name)
        monkeypatch.setattr(packet_module, "_sequence", itertools.count())
        return run(self, app, *args, **kwargs)
    monkeypatch.setattr(Cluster, "run", counted)
    return calls


def same_rows(graphs, others):
    """Graph for graph, the same fields and the same rows, byte for
    byte (compared without a diff: the rows are many)."""
    def content(graph):
        return [graph.rows.tobytes() if field.name == "rows"
                else getattr(graph, field.name)
                for field in dataclasses.fields(graph)]
    return [content(graph) for graph in graphs] == \
        [content(graph) for graph in others]


def plans():
    """simcost's recordings beside the overhead figure they predict."""
    return [experiments.recorded_suite.plan(4, **SIZE),
            experiments.sensitivity_figure.plan(
                "overhead", n_nodes=4, values=(2.9, 12.9), **SIZE)]


def test_a_recording_plan_simulates_each_key_once_cold_and_nothing_warm(
        tmp_path, runs):
    cache = RunCache(tmp_path)
    graphs, figure = run_plans(plans(), cache=cache)
    # Two apps x two dial values; the recordings are the baselines.
    assert sorted(runs) == sorted(NAMES * 2)
    assert (len(cache), cache.hits, cache.misses) == (4, 0, 4)
    assert sorted(path.suffix for path in tmp_path.iterdir()) \
        == [".graph"] * 2 + [".json"] * 4
    assert [graph.app_name for graph in graphs] == NAMES
    assert [graph.runtime_us for graph in graphs] == \
        [figure.sweeps[name].baseline.runtime_us for name in NAMES]

    runs.clear()
    warm = RunCache(tmp_path)
    warm_graphs, warm_figure = run_plans(plans(), cache=warm)
    assert runs == []
    assert (warm.hits, warm.misses) == (4, 0)
    assert warm_figure.render() == figure.render()

    recorded = [record_run(app, 4)[0] for app in suite_for(4, **SIZE)]
    assert same_rows(graphs, warm_graphs) and same_rows(graphs, recorded)


def test_recording_leaves_the_run_entry_byte_identical(tmp_path):
    app, = suite_for(4, scale=0.05, names=["Radix"])
    task = PointTask(app, Cluster(n_nodes=4))
    run_points([task], cache=RunCache(tmp_path / "plain"))
    run_points([PointTask(app, Cluster(n_nodes=4), record=True)],
               cache=RunCache(tmp_path / "recorded"))
    entry = f"{task.key}.json"
    assert (tmp_path / "plain" / entry).read_bytes() == \
        (tmp_path / "recorded" / entry).read_bytes()
    assert not (tmp_path / "plain" / f"{task.key}.graph").exists()
    assert (tmp_path / "recorded" / f"{task.key}.graph").exists()


def test_a_cached_run_without_its_graph_is_a_miss_for_a_recording(
        tmp_path, runs):
    app, = suite_for(4, scale=0.05, names=["Radix"])
    cache = RunCache(tmp_path)
    plain = PointTask(app, Cluster(n_nodes=4))
    run_points([plain], cache=cache)
    recording = PointTask(app, Cluster(n_nodes=4), record=True)
    point, = run_points([recording], cache=cache)
    assert (cache.hits, cache.misses, len(runs)) == (0, 2, 2)
    assert point.graph is not None
    # The graph now in place, both kinds of lookup hit.
    point, = run_points([recording], cache=cache)
    run_points([plain], cache=cache)
    assert (cache.hits, len(runs)) == (2, 2)
    # A graph that does not load is a miss, and is written again: a
    # torn file, a v1 JSON graph (cached before the rows were arrays),
    # and a payload that would need pickle, which is never unpickled.
    graph_file = tmp_path / f"{plain.key}.graph"
    torn = graph_file.read_bytes()[:100]
    trap = io.BytesIO()
    np.savez(trap, schema=np.array("repro-cost-graph-v2"),
             meta=np.array("{}"), rows=np.array([Trap()], dtype=object))
    for misses, stale in enumerate(
            (torn, v1_json(point.graph).encode(), trap.getvalue()), 3):
        graph_file.write_bytes(stale)
        again, = run_points([recording], cache=cache)
        assert (cache.misses, len(runs)) == (misses, misses), misses
        assert again.graph.rows.tobytes() == point.graph.rows.tobytes()
        assert CostGraph.load(graph_file).rows.tobytes() == \
            point.graph.rows.tobytes()
        # Re-recorded once: the next lookup hits.
        run_points([recording], cache=cache)
        assert (cache.misses, len(runs)) == (misses, misses), misses
    assert cache.clear() == 2 and not list(tmp_path.iterdir())


def test_a_failed_recording_raises_its_taxonomy_and_caches_as_a_failure(
        tmp_path):
    app, = suite_for(4, scale=0.05, names=["Radix"])
    with pytest.raises(RuntimeError, match="budget exceeded"):
        record_run(app, 4, run_limit_us=1.0)
    task = PointTask(app, Cluster(n_nodes=4, run_limit_us=1.0),
                     record=True)
    cache = RunCache(tmp_path)
    run_points([task], cache=cache)
    point, = run_points([task], cache=cache)
    # Recording it again would fail the same way: a hit, no graph.
    assert (cache.hits, point.graph) == (1, None)
    assert point.failure_category == "budget exceeded"


def test_parallel_recordings_match_serial_ones(tmp_path, runs):
    serial = run_plans(plans()[:1])[0]
    parallel = run_plans(plans()[:1], cache=RunCache(tmp_path), jobs=2)[0]
    assert same_rows(parallel, serial)
