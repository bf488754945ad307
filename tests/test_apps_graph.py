"""Connect and Murphi: graph/state-space applications.

Connect validates in ``finalize`` against an array labelling of its own
(min-label propagation with pointer jumping); here we additionally
cross-check with networkx, and plant wrong labellings the check must
refuse.  Murphi validates against its
own sequential BFS; we re-derive that count independently.
"""

import gc
import tracemalloc

import networkx as nx
import numpy as np
import pytest

from repro import Cluster
from repro.apps import Connect, Murphi
from repro.apps.murphi import TransitionSystem
from repro.harness.suite import suite_for

#: Connect's traced peak (MB) at the ``suite32_cold`` size: 4.05 MB
#: measured (Python 3.11, numpy 2.4), plus 25 % headroom.  Holding the
#: edges as tuples and checking through dicts peaked at 19.4 MB.
CONNECT_PEAK_MB_BUDGET = 5.0


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_nodes=4, seed=13)


# -- Connect ------------------------------------------------------------------

def _true_components(app):
    graph = nx.Graph()
    graph.add_nodes_from(range(app._n_vertices))
    graph.add_edges_from(app._edges.tolist())
    return list(nx.connected_components(graph))


def test_connect_matches_networkx(cluster):
    app = Connect(rows_per_proc=3)
    result = cluster.run(app)
    labels = dict(enumerate(result.output.tolist()))
    expected_components = _true_components(app)

    by_label = {}
    for vertex, label in labels.items():
        by_label.setdefault(label, set()).add(vertex)
    measured_components = sorted(map(frozenset, by_label.values()),
                                 key=min)
    assert sorted(map(frozenset, expected_components), key=min) \
        == measured_components


def test_connect_rank_edges_are_its_edges_in_order(cluster):
    """Each rank drives the edges whose source strip it owns, local
    ones and boundary ones each in edge order."""
    app = Connect(rows_per_proc=3)
    app.configure(cluster.n_nodes, cluster.seed)
    strip = app.rows_per_proc * app.cols
    for rank, (local, boundary) in enumerate(app._rank_edges):
        mine = [edge for edge in app._edges.tolist()
                if edge[0] // strip == rank]
        assert local.tolist() == [edge for edge in mine
                                  if edge[1] // strip == rank]
        assert boundary.tolist() == [edge for edge in mine
                                     if edge[1] // strip != rank]


def _planted(app):
    """The true labelling as an array, and its components with more
    than one vertex, largest first."""
    components = sorted(_true_components(app), key=len, reverse=True)
    labels = np.empty(app._n_vertices, dtype=np.int64)
    for component in components:
        labels[list(component)] = min(component)
    app._validate(labels)  # the true labelling passes
    return labels, [sorted(c) for c in components if len(c) > 1]


def test_connect_check_refuses_a_merge_of_two_components(cluster):
    app = Connect(rows_per_proc=3)
    app.configure(cluster.n_nodes, cluster.seed)
    labels, (first, second, *_rest) = _planted(app)
    labels[second] = labels[first[0]]
    with pytest.raises(AssertionError, match="merged components"):
        app._validate(labels)


def test_connect_check_refuses_a_split_component(cluster):
    app = Connect(rows_per_proc=3)
    app.configure(cluster.n_nodes, cluster.seed)
    labels, (largest, *_rest) = _planted(app)
    labels[largest[-1]] = largest[-1]  # a label no other vertex has
    with pytest.raises(AssertionError, match="split a component"):
        app._validate(labels)


def test_connect_read_dominated(cluster):
    summary = cluster.run(
        Connect(rows_per_proc=3)).summary()
    # Table 4: Connect is ~67% reads (find-chasing).
    assert summary.percent_reads > 40.0


def test_connect_light_communication(cluster):
    result = cluster.run(Connect(rows_per_proc=3))
    # Communication is bounded by boundary edges, far below the sorts.
    assert result.stats.avg_messages_per_node < 500


class _FullMesh(Connect):
    """A narrow mesh with every lattice edge: one component."""
    cols, connectivity = 10, 1.0


class _EmptyMesh(Connect):
    """A narrow mesh with no edge: every vertex its own component."""
    cols, connectivity = 10, 0.0


def test_connect_fully_connected_mesh():
    cluster = Cluster(n_nodes=3, seed=2)
    result = cluster.run(_FullMesh(rows_per_proc=2))
    assert len(set(result.output.tolist())) == 1


def test_connect_empty_mesh():
    cluster = Cluster(n_nodes=3, seed=2)
    app = _EmptyMesh(rows_per_proc=2)
    result = cluster.run(app)
    assert len(set(result.output.tolist())) == app._n_vertices


def test_connect_peak_memory_stays_within_budget():
    """Connect at 32 nodes and scale 0.125, one run under tracemalloc
    after a warm-up run, so imports and first-call caches are not
    counted."""
    def run():
        app, = suite_for(32, scale=0.125, names=["Connect"])
        Cluster(32, seed=13).run(app)

    run()
    gc.collect()
    tracemalloc.start()
    try:
        run()
        peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    print(f"\nConnect P=32 scale=0.125: traced peak {peak_mb:.2f} MB "
          f"(budget {CONNECT_PEAK_MB_BUDGET} MB)")
    assert peak_mb <= CONNECT_PEAK_MB_BUDGET


def test_connect_single_node():
    result = Cluster(n_nodes=1, seed=8).run(
        Connect(rows_per_proc=4))
    assert result.stats.total_messages == 0


# -- Murphi -------------------------------------------------------------------

def test_murphi_explores_exact_reachable_set(cluster):
    app = Murphi(state_space=400)
    result = cluster.run(app)
    reference = TransitionSystem(400, 3, seed=cluster.seed)
    assert result.output["explored"] == reference.reachable_count()


def test_murphi_each_state_processed_once(cluster):
    app = Murphi(state_space=300)
    result = cluster.run(app)
    assert result.output["explored"] <= 300


def test_murphi_uses_bulk_batches(cluster):
    summary = cluster.run(
        Murphi(state_space=800)).summary()
    # Table 4: Murphi ships ~half its messages as bulk state batches.
    assert summary.percent_bulk > 20.0


def test_murphi_single_node():
    result = Cluster(n_nodes=1, seed=6).run(
        Murphi(state_space=200))
    reference = TransitionSystem(200, 3, seed=6)
    assert result.output["explored"] == reference.reachable_count()


def test_transition_system_is_deterministic():
    a = TransitionSystem(500, 3, seed=42)
    b = TransitionSystem(500, 3, seed=42)
    for state in range(0, 500, 37):
        assert a.successors(state) == b.successors(state)
    assert a.reachable_count() == b.reachable_count()


def test_transition_system_owner_partition():
    system = TransitionSystem(500, 3, seed=1)
    owners = {system.owner(s, 4) for s in range(500)}
    assert owners <= set(range(4))
    assert len(owners) == 4  # all ranks own something
