"""Barnes and P-Ray: the software-caching, lock-using applications."""

import numpy as np
import pytest

from repro import Cluster, TuningKnobs
from repro.apps import Barnes, PRay
from repro.apps.barnes import (MAX_DEPTH, cell_center, cell_half_width,
                               cell_owner, octant_of, plan_split)
from repro.gas.runtime import LivelockError


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_nodes=4, seed=21)


# -- Barnes geometry helpers -----------------------------------------------------

def test_root_cell_geometry():
    assert np.allclose(cell_center(()), [0.5, 0.5, 0.5])
    assert cell_half_width(()) == 0.5


def test_child_cell_geometry():
    # Octant 0 is the low corner on every axis.
    assert np.allclose(cell_center((0,)), [0.25, 0.25, 0.25])
    # Octant 7 is the high corner.
    assert np.allclose(cell_center((7,)), [0.75, 0.75, 0.75])
    assert cell_half_width((0,)) == 0.25


def test_octant_roundtrip():
    # A point placed in each child octant must map back to that octant.
    for octant in range(8):
        position = cell_center((octant,))
        assert octant_of(position, ()) == octant


def test_cell_owner_deterministic_and_spread():
    owners = {cell_owner((a, b), 8)
              for a in range(8) for b in range(8)}
    assert owners <= set(range(8))
    assert len(owners) > 3  # hashes spread over nodes
    assert cell_owner((1, 2, 3), 8) == cell_owner((1, 2, 3), 8)


def test_plan_split_separating_bodies():
    body_a = (0, np.array([0.1, 0.1, 0.1]), 1.0)
    body_b = (1, np.array([0.9, 0.9, 0.9]), 1.0)
    records = plan_split((), body_a, body_b)
    # Bodies separate immediately: two leaves plus the root internal.
    kinds = [record["type"] for _key, record in records]
    assert kinds == ["leaf", "leaf", "internal"]
    root_record = records[-1][1]
    assert records[-1][0] == ()
    assert root_record["children"] == {0, 7}


def test_plan_split_deep_chain():
    # Two very close bodies force a chain of internal cells.
    body_a = (0, np.array([0.100, 0.1, 0.1]), 1.0)
    body_b = (1, np.array([0.101, 0.1, 0.1]), 1.0)
    records = plan_split((), body_a, body_b)
    internals = [key for key, rec in records if rec["type"] == "internal"]
    assert len(internals) >= 2
    # Parent flip comes last, so descenders never see half a subtree.
    assert records[-1][0] == ()
    # Every internal knows its children.
    for key, record in records:
        if record["type"] == "internal":
            assert record["children"]


def test_plan_split_identical_positions_hits_max_depth():
    position = np.array([0.3, 0.3, 0.3])
    records = plan_split((), (0, position, 1.0), (1, position.copy(), 2.0))
    leaf_keys = [key for key, rec in records if rec["type"] == "leaf"]
    assert any(len(key) == MAX_DEPTH for key in leaf_keys)


# -- Barnes end-to-end ----------------------------------------------------------

def test_barnes_matches_sequential_reference(cluster):
    result = cluster.run(Barnes(bodies_per_proc=5, steps=1))
    assert result.output.shape == (20, 3)


def test_barnes_multi_step_rebuilds_tree(cluster):
    result = cluster.run(Barnes(bodies_per_proc=4, steps=2))
    assert result.output.shape == (16, 3)


class _NudgedBarnes(Barnes):
    """Barnes whose rank 0 scales its largest acceleration component by
    ``1 + nudge`` after the run, as a wrong answer would."""

    def __init__(self, nudge: float, **kwargs) -> None:
        super().__init__(**kwargs)
        self.nudge = nudge

    def run_rank(self, proc):
        yield from super().run_rank(proc)
        if proc.rank == 0:
            accels, bodies = proc.state["barnes"]["accels"], \
                list(self._my_bodies(proc))
            row, axis = np.unravel_index(
                np.argmax(np.abs(accels[bodies])), (len(bodies), 3))
            accels[bodies[row], axis] *= 1 + self.nudge


def test_barnes_check_refuses_an_acceleration_beyond_rtol(cluster):
    # 10x the tolerance fails; a tenth of it passes: rtol is 1e-6.
    with pytest.raises(AssertionError, match="diverge from the sequential"):
        cluster.run(_NudgedBarnes(1e-5, bodies_per_proc=5, steps=1))
    cluster.run(_NudgedBarnes(1e-7, bodies_per_proc=5, steps=1))


def test_barnes_accuracy_vs_direct_sum(cluster):
    app = Barnes(bodies_per_proc=5, theta=0.3, steps=1)
    result = cluster.run(app)
    from repro.apps.barnes import _pairwise
    positions = app._positions
    masses = app._masses
    direct = np.zeros_like(positions)
    for i in range(len(masses)):
        for j in range(len(masses)):
            if i != j:
                direct[i] += _pairwise(positions[i], positions[j],
                                       masses[j])
    # θ=0.3 is a tight opening criterion: BH should be close to direct.
    err = np.linalg.norm(result.output - direct, axis=1)
    scale = np.linalg.norm(direct, axis=1)
    assert np.median(err / (scale + 1e-12)) < 0.05


def test_barnes_uses_locks_and_reads(cluster):
    result = cluster.run(Barnes(bodies_per_proc=5, steps=1))
    summary = result.summary()
    assert summary.percent_reads > 5.0
    assert summary.percent_bulk > 5.0  # cached cell fetches are bulk


def test_barnes_livelock_guard_fires_on_contention():
    # The paper reports Barnes "does not complete" past ~7-13 us of
    # added overhead (lock retry storms).  Our failed-lock budget is the
    # operational stand-in for that DNF condition: with a tiny budget, a
    # contended build must trip the guard.
    cluster = Cluster(n_nodes=8, seed=21,
                      knobs=TuningKnobs.added_overhead(25.0),
                      livelock_limit=20)
    with pytest.raises(LivelockError):
        cluster.run(Barnes(bodies_per_proc=16, steps=1))


def test_barnes_lock_contention_is_recorded():
    cluster = Cluster(n_nodes=8, seed=21)
    result = cluster.run(Barnes(bodies_per_proc=8, steps=1))
    # Concurrent inserts into a fresh tree always collide at the top.
    assert result.stats.failed_lock_attempts.sum() > 0


# -- P-Ray ----------------------------------------------------------------------

def test_pray_image_matches_reference(cluster):
    result = cluster.run(PRay(pixels_per_proc=16, n_objects=64))
    assert result.output.shape == (64,)


def test_pray_read_and_bulk_dominated(cluster):
    summary = cluster.run(
        PRay(pixels_per_proc=24, n_objects=64)).summary()
    # Table 4: P-Ray ~96% reads, ~48% bulk (bulk replies to short
    # read requests).
    assert summary.percent_reads > 70.0
    assert summary.percent_bulk > 25.0


def test_pray_cache_reduces_fetches(cluster):
    big_cache = cluster.run(PRay(pixels_per_proc=24, n_objects=64,
                                 cache_objects=64))
    tiny_cache = cluster.run(PRay(pixels_per_proc=24, n_objects=64,
                                  cache_objects=2))
    assert tiny_cache.stats.total_messages \
        > big_cache.stats.total_messages


def test_pray_hot_objects_create_imbalance():
    cluster = Cluster(n_nodes=8, seed=21)
    result = cluster.run(PRay(pixels_per_proc=32, n_objects=128,
                              cache_objects=4, zipf_s=2.0))
    # Hot low-id objects live on low ranks: their owners receive more
    # traffic than average (Figure 4f's hot spots).
    column_load = result.stats.matrix.sum(axis=0)
    assert column_load.max() > 1.3 * column_load.mean()


def test_pray_single_node_no_messages():
    result = Cluster(n_nodes=1, seed=2).run(
        PRay(pixels_per_proc=16, n_objects=32))
    assert result.stats.total_messages == 0
