"""Deeper tests of the collective operations."""

import pytest

from repro import Cluster
from repro.apps.base import Application
from repro.coll.algorithms import reduce_binomial


class _Lambda(Application):
    name = "coll-test"

    def __init__(self, body):
        self._body = body

    def run_rank(self, proc):
        yield from self._body(proc)


def run_app(body, n_nodes=4, **kw):
    return Cluster(n_nodes=n_nodes, **kw).run(_Lambda(body))


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 4, 5, 7, 8, 16])
def test_barrier_all_sizes(n_nodes):
    def body(proc):
        for _ in range(3):
            yield from proc.barrier()

    run_app(body, n_nodes=n_nodes)


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 5, 8])
def test_broadcast_all_sizes_and_roots(n_nodes):
    def body(proc):
        for root in range(n_nodes):
            value = yield from proc.broadcast(
                value=("payload", root) if proc.rank == root else None,
                root=root)
            assert value == ("payload", root)

    run_app(body, n_nodes=n_nodes)


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 5, 8])
def test_reduce_all_sizes(n_nodes):
    def body(proc):
        # The binomial reduction is allreduce's first half.
        total = yield from reduce_binomial(proc, proc.rank,
                                           lambda a, b: a + b)
        if proc.rank == 0:
            assert total == sum(range(proc.n_ranks))

    run_app(body, n_nodes=n_nodes)


def test_back_to_back_collectives_do_not_cross_talk():
    def body(proc):
        first = yield from proc.allreduce(proc.rank, max)
        second = yield from proc.allreduce(-proc.rank, min)
        third = yield from proc.broadcast(
            "x" if proc.rank == 1 else None, root=1)
        assert first == proc.n_ranks - 1
        assert second == -(proc.n_ranks - 1)
        assert third == "x"
        yield from proc.barrier()
        fourth = yield from proc.allreduce(1, lambda a, b: a + b)
        assert fourth == proc.n_ranks

    run_app(body, n_nodes=6)


def test_interleaved_barriers_and_point_to_point():
    def body(proc):
        arr = proc.allocate(proc.n_ranks, name="mix")
        for round_id in range(4):
            peer = (proc.rank + 1 + round_id) % proc.n_ranks
            if peer != proc.rank:
                yield from proc.write(arr, peer, round_id, mode="add")
            yield from proc.sync()
            yield from proc.barrier()
        # Rounds 0..2 deposit their round id in every slot; in round 3
        # the target would be the writer itself (stride P), which the
        # loop skips — so each slot holds 0 + 1 + 2 = 3.
        assert int(proc.local(arr)[0]) == 3

    run_app(body, n_nodes=4)


def test_barrier_counts_match_rounds():
    def body(proc):
        for _ in range(5):
            yield from proc.barrier()

    result = run_app(body, n_nodes=8)
    # 5 in-app barriers + the runtime's exit barrier.
    assert int(result.stats.barriers[0]) == 6


def test_broadcast_bulk_variant():
    def body(proc):
        table = list(range(100)) if proc.rank == 0 else None
        value = yield from proc.broadcast(table, root=0,
                                          size=400, bulk=True)
        assert value == list(range(100))

    result = run_app(body, n_nodes=4)
    assert result.stats.bulk_messages_sent.sum() > 0


def test_reduce_non_commutative_order_is_deterministic():
    def body(proc):
        # String concatenation: order-sensitive.  The binomial tree
        # combines deterministically, so every run agrees.
        value = yield from reduce_binomial(proc, str(proc.rank),
                                           lambda a, b: a + b)
        if proc.rank == 0:
            proc.state["combined"] = value

    first = run_app(body, n_nodes=8)
    second = run_app(body, n_nodes=8)
    # finalize not used; read proc state via stats equality of runtimes.
    assert first.runtime_us == second.runtime_us
