"""EM3D: both variants validate against the sequential reference inside
``finalize``; these tests pin the variants' distinct communication
profiles (Table 4) and their agreement with each other."""

import numpy as np
import pytest

from repro import Cluster
from repro.apps import EM3D


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_nodes=4, seed=9)


def test_write_variant_matches_reference(cluster):
    result = cluster.run(EM3D(nodes_per_proc=12, steps=3,
                              variant="write"))
    assert set(result.output) == {"e", "h"}


def test_read_variant_matches_reference(cluster):
    result = cluster.run(EM3D(nodes_per_proc=12, steps=3,
                              variant="read"))
    assert set(result.output) == {"e", "h"}


def test_variants_compute_identical_fields(cluster):
    write = cluster.run(EM3D(nodes_per_proc=12, steps=3,
                             variant="write"))
    read = cluster.run(EM3D(nodes_per_proc=12, steps=3, variant="read"))
    for kind in ("e", "h"):
        assert np.allclose(write.output[kind], read.output[kind])


def test_read_variant_is_read_dominated(cluster):
    summary = cluster.run(
        EM3D(nodes_per_proc=12, steps=2, variant="read")).summary()
    # Table 4: EM3D(read) is ~97% reads.
    assert summary.percent_reads > 80.0


def test_write_variant_has_no_reads(cluster):
    summary = cluster.run(
        EM3D(nodes_per_proc=12, steps=2, variant="write")).summary()
    assert summary.percent_reads < 1.0
    assert summary.percent_bulk < 1.0


def test_read_variant_sends_more_messages(cluster):
    # Reads pull every cross edge every step; writes push each boundary
    # value once per consumer processor — the paper's read version sends
    # nearly twice the messages of the write version.
    write = cluster.run(EM3D(nodes_per_proc=12, steps=2,
                             variant="write"))
    read = cluster.run(EM3D(nodes_per_proc=12, steps=2, variant="read"))
    assert read.stats.total_messages > write.stats.total_messages


def test_write_variant_uses_barriers_each_step(cluster):
    result = cluster.run(EM3D(nodes_per_proc=12, steps=4,
                              variant="write"))
    # Two half-steps per step, one barrier each (plus the exit barrier).
    assert result.stats.barriers[0] >= 8


def test_zero_remote_edges_runs_without_communication():
    cluster = Cluster(n_nodes=2, seed=1)
    result = cluster.run(EM3D(nodes_per_proc=8, steps=2,
                              pct_remote=0.0, variant="read"))
    # Only barrier/collective traffic remains.
    summary = result.summary()
    assert summary.percent_reads == 0.0


def test_single_node_em3d():
    result = Cluster(n_nodes=1, seed=4).run(
        EM3D(nodes_per_proc=10, steps=2, variant="write"))
    assert result.stats.total_messages == 0


def _loop_reference(app):
    """The sequential reference as a per-consumer loop: the oracle the
    array reference must match to the bit."""
    total = app._n_nodes * app.nodes_per_proc
    parts = [app._initial_values(rank) for rank in range(app._n_nodes)]
    values = {"e": np.concatenate([e for e, _h in parts]),
              "h": np.concatenate([h for _e, h in parts])}
    for _step in range(app.steps):
        for consumer_kind, source_kind in (("e", "h"), ("h", "e")):
            new = np.empty(total)
            for consumer in range(total):
                acc = 0.0
                for src, weight in app._edges[consumer_kind][consumer]:
                    acc += weight * values[source_kind][src]
                new[consumer] = 0.5 * acc
            values[consumer_kind] = new
    return values


@pytest.mark.parametrize("n_nodes, nodes_per_proc, steps, seed", [
    (1, 10, 2, 4), (4, 12, 3, 9), (5, 8, 6, 0), (32, 8, 6, 13)])
def test_reference_adds_as_the_loop_does(n_nodes, nodes_per_proc, steps,
                                         seed):
    app = EM3D(nodes_per_proc=nodes_per_proc, steps=steps)
    app.configure(n_nodes, seed)
    fast, slow = app._sequential_reference([]), _loop_reference(app)
    for kind in ("e", "h"):
        assert np.array_equal(fast[kind], slow[kind])


class _Nudged(EM3D):
    """EM3D whose rank 0 scales its largest E value by ``1 + nudge``
    after the run, as a wrong answer would."""

    def __init__(self, nudge: float, **kwargs) -> None:
        super().__init__(**kwargs)
        self.nudge = nudge

    def run_rank(self, proc):
        yield from super().run_rank(proc)
        if proc.rank == 0:
            local = proc.local(proc.state["em3d"]["arrays"]["e"])
            local[np.argmax(np.abs(local))] *= 1 + self.nudge


@pytest.mark.parametrize("variant", ["write", "read"])
def test_the_check_refuses_an_e_value_beyond_rtol(cluster, variant):
    # 10x the tolerance fails; a tenth of it passes: rtol is 1e-9.
    with pytest.raises(AssertionError, match="e-values diverge"):
        cluster.run(_Nudged(1e-8, nodes_per_proc=12, steps=2,
                            variant=variant))
    cluster.run(_Nudged(1e-10, nodes_per_proc=12, steps=2,
                        variant=variant))


def test_seed_changes_initial_values_per_rank():
    """Regression: per-rank RNGs used to be RandomState(rank + 17) —
    seed-independent, so every --seed replayed identical inputs."""
    seeded_a, seeded_b = EM3D(nodes_per_proc=12), EM3D(nodes_per_proc=12)
    seeded_a.configure(n_nodes=4, seed=9)
    seeded_b.configure(n_nodes=4, seed=10)
    for rank in range(4):
        e_a, h_a = seeded_a._initial_values(rank)
        e_b, h_b = seeded_b._initial_values(rank)
        assert not np.array_equal(e_a, e_b)
        assert not np.array_equal(h_a, h_b)
    # Ranks still get distinct streams under one seed.
    e0, _ = seeded_a._initial_values(0)
    e1, _ = seeded_a._initial_values(1)
    assert not np.array_equal(e0, e1)


def test_same_seed_runs_are_bit_identical_including_cache_keys():
    from repro.harness.runcache import RunCache, run_key_spec
    from repro.am.tuning import TuningKnobs
    from repro.network.loggp import LogGPParams

    def run(seed):
        return Cluster(n_nodes=4, seed=seed).run(
            EM3D(nodes_per_proc=12, steps=2, variant="write"))

    first, second, other = run(9), run(9), run(10)
    for kind in ("e", "h"):
        assert np.array_equal(first.output[kind], second.output[kind])
        assert not np.array_equal(first.output[kind],
                                  other.output[kind])
    assert first.runtime_us == second.runtime_us
    assert first.to_dict() == second.to_dict()

    def key(seed):
        return RunCache.key_for(run_key_spec(
            EM3D(nodes_per_proc=12, steps=2, variant="write"), Cluster(
                4, LogGPParams.berkeley_now(), TuningKnobs(), seed=seed)))

    assert key(9) == key(9)
    assert key(9) != key(10)


def test_em3d_rejects_bad_parameters():
    with pytest.raises(ValueError):
        EM3D(variant="push")
    with pytest.raises(ValueError):
        EM3D(pct_remote=1.5)
    with pytest.raises(ValueError):
        EM3D(nodes_per_proc=0)


def test_name_reflects_variant():
    assert EM3D(variant="write").name == "EM3D(write)"
    assert EM3D(variant="read").name == "EM3D(read)"
