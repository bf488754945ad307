"""Integration tests: the global address space over the full stack."""

import pytest

from repro import Cluster
from repro.apps.base import Application
from repro.coll.algorithms import reduce_binomial
from repro.gas.sync import DistributedLock


class _Lambda(Application):
    """Wrap a run_rank generator function as an Application."""

    name = "test-app"

    def __init__(self, body, setup=None, finalize=None):
        self._body = body
        self._setup = setup
        self._finalize = finalize

    def setup_rank(self, proc):
        if self._setup is not None:
            yield from self._setup(proc)

    def run_rank(self, proc):
        yield from self._body(proc)

    def finalize(self, procs):
        if self._finalize is not None:
            return self._finalize(procs)
        return None


def run_app(body, n_nodes=4, setup=None, finalize=None, **cluster_kw):
    cluster = Cluster(n_nodes=n_nodes, **cluster_kw)
    return cluster.run(_Lambda(body, setup=setup, finalize=finalize))


def test_remote_read_returns_owner_value():
    def body(proc):
        arr = proc.allocate(8, name="data")
        proc.local(arr)[:] = proc.rank * 100
        yield from proc.barrier()
        # Every rank reads element 0 of every block.
        for index in range(8):
            owner, _ = arr.owner_of(index)
            value = yield from proc.read(arr, index)
            assert value == owner * 100

    run_app(body, n_nodes=4)


def test_pipelined_writes_land_after_sync():
    def body(proc):
        arr = proc.allocate(16, name="target")
        yield from proc.barrier()
        # Each rank writes its rank into its "column" across all blocks.
        for index in range(proc.rank, 16, proc.n_ranks):
            yield from proc.write(arr, index, proc.rank + 1)
        yield from proc.sync()
        yield from proc.barrier()
        proc.state["local"] = proc.local(arr).copy()

    def finalize(procs):
        collected = []
        for proc in procs:
            collected.extend(proc.state["local"].tolist())
        return collected

    result = run_app(body, n_nodes=4, finalize=finalize)
    expected = [(i % 4) + 1 for i in range(16)]
    assert result.output == expected


def test_write_add_mode_accumulates():
    def body(proc):
        counter = proc.allocate(1, name="counter")
        yield from proc.barrier()
        for _ in range(3):
            yield from proc.write(counter, 0, 1, mode="add")
        yield from proc.sync()
        yield from proc.barrier()
        if proc.rank == 0:
            proc.state["total"] = int(proc.local(counter)[0])

    result = run_app(body, n_nodes=4,
                     finalize=lambda procs: procs[0].state["total"])
    assert result.output == 12


def test_bulk_get_round_trips_remote_block():
    def body(proc):
        arr = proc.allocate(40, name="bulk")
        local = proc.local(arr)
        start = arr.local_start(proc.rank)
        local[:] = [start + i for i in range(len(local))]
        yield from proc.barrier()
        peer = (proc.rank + 1) % proc.n_ranks
        peer_start = arr.local_start(peer)
        values = yield from proc.bulk_get(arr, peer_start, 10)
        assert list(values) == [peer_start + i for i in range(10)]

    run_app(body, n_nodes=4)


def test_bulk_put_lands_remote():
    def body(proc):
        arr = proc.allocate(40, name="bulkput")
        yield from proc.barrier()
        peer = (proc.rank + 1) % proc.n_ranks
        peer_start = arr.local_start(peer)
        yield from proc.bulk_put(arr, peer_start,
                                 [proc.rank] * 10)
        yield from proc.sync()
        yield from proc.barrier()
        left = (proc.rank - 1) % proc.n_ranks
        assert all(v == left for v in proc.local(arr))

    run_app(body, n_nodes=4)


def test_barrier_synchronises_ranks():
    def body(proc):
        # Stagger ranks; after the barrier all clocks must be past the
        # slowest rank's compute.
        yield from proc.compute(proc.rank * 50.0)
        yield from proc.barrier()
        proc.state["after"] = proc.sim.now

    def finalize(procs):
        return [p.state["after"] for p in procs]

    result = run_app(body, n_nodes=4, finalize=finalize)
    slowest = 3 * 50.0
    assert all(t >= slowest for t in result.output)


def test_broadcast_from_nonzero_root():
    def body(proc):
        value = yield from proc.broadcast(
            value="secret" if proc.rank == 2 else None, root=2)
        assert value == "secret"

    run_app(body, n_nodes=5)


def test_reduce_sums_to_root():
    def body(proc):
        # The binomial reduction is allreduce's first half.
        total = yield from reduce_binomial(proc, proc.rank + 1,
                                           lambda a, b: a + b, root=0)
        if proc.rank == 0:
            assert total == sum(range(1, 7))
        else:
            assert total is None

    run_app(body, n_nodes=6)


def test_allreduce_max_lands_everywhere():
    def body(proc):
        top = yield from proc.allreduce(proc.rank * 10, max)
        assert top == 30

    run_app(body, n_nodes=4)


def test_distributed_lock_mutual_exclusion():
    def body(proc):
        lock = DistributedLock(home_rank=0, lock_id=1)
        shared = proc.allocate(1, name="shared")
        yield from proc.barrier()
        for _ in range(5):
            yield from proc.lock(lock)
            # Critical section: read-modify-write a remote counter.
            value = yield from proc.read(shared, 0)
            yield from proc.compute(2.0)
            yield from proc.write(shared, 0, value + 1)
            yield from proc.sync()
            yield from proc.unlock(lock)
        yield from proc.barrier()
        if proc.rank == 0:
            proc.state["count"] = int(proc.local(shared)[0])

    result = run_app(body, n_nodes=4,
                     finalize=lambda procs: procs[0].state["count"])
    # Without mutual exclusion the read-modify-write would lose updates.
    assert result.output == 4 * 5


def test_livelock_guard_raises():
    from repro.gas.runtime import LivelockError

    def body(proc):
        lock = DistributedLock(home_rank=0, lock_id=7)
        if proc.rank == 0:
            # Take the lock and never release: everyone else spins.
            yield from proc.lock(lock)
            yield from proc.compute(1e9)
        else:
            yield from proc.lock(lock)

    with pytest.raises(LivelockError):
        run_app(body, n_nodes=2, livelock_limit=50)


class _SetupContention(Application):
    """Every rank takes one lock homed on rank 0 in ``setup_rank`` and
    holds it a while, so the others are denied; setup also crosses a
    barrier and an allreduce.  The timed region only allreduces."""

    name = "setup-contention"

    def setup_rank(self, proc):
        lock = DistributedLock(home_rank=0, lock_id=3)
        yield from proc.lock(lock)
        yield from proc.compute(50.0)
        yield from proc.unlock(lock)
        yield from proc.barrier()
        yield from proc.allreduce(1, max)

    def run_rank(self, proc):
        yield from proc.allreduce(proc.rank, max)


def test_failed_locks_count_the_whole_run_and_collectives_the_region():
    """``failed_lock_attempts`` is the one counter kept over the whole
    run: it counts denials in ``setup_rank``, while ``barriers`` and the
    collective counters keep only the measured region."""

    class Denials:
        def on_begin(self, sim, cluster, app_name):
            self.sim, self.times = sim, []

        def on_failed_lock(self, rank):
            self.times.append(self.sim.now)

    denials = Denials()
    stats = Cluster(n_nodes=4, seed=2).run(
        _SetupContention(), tracer=denials).stats
    assert stats.failed_lock_attempts.sum() == len(denials.times) > 0
    assert max(denials.times) < stats.started_at
    # Rank 0 opens and closes the region: it counts the exit barrier
    # and the one allreduce, not the entry barrier or setup's.
    assert stats.barriers[0] == 1
    assert sorted(stats.collective_calls) == \
        ["allreduce/binomial", "barrier/dissemination"]
    for key in stats.collective_calls:
        assert stats.collective_calls[key][0] == 1
        assert stats.collective_calls[key].max() == 1


def test_runtime_measures_timed_region_only():
    def setup(proc):
        yield from proc.compute(10_000.0)  # untimed

    def body(proc):
        yield from proc.compute(500.0)

    result = run_app(body, n_nodes=2, setup=setup)
    # Untimed setup (10 ms) must not appear in the runtime; the timed
    # region is ~500 us plus two barriers.
    assert 500.0 <= result.runtime_us < 1500.0


def test_stats_count_messages_in_timed_region():
    def body(proc):
        arr = proc.allocate(proc.n_ranks, name="stats")
        yield from proc.barrier()
        peer = (proc.rank + 1) % proc.n_ranks
        for _ in range(10):
            yield from proc.write(arr, peer, 1, mode="add")
        yield from proc.sync()

    result = run_app(body, n_nodes=4)
    stats = result.stats
    # Each rank sent 10 write requests; each also sent 10 acks for its
    # neighbour's writes, plus barrier traffic.
    assert stats.total_messages >= 4 * 20
    assert stats.matrix.sum() == stats.total_messages


def test_run_is_deterministic():
    def body(proc):
        arr = proc.allocate(64, name="det")
        yield from proc.barrier()
        for i in range(16):
            index = proc.rng.randrange(64)
            yield from proc.write(arr, index, 1, mode="add")
        yield from proc.sync()
        yield from proc.barrier()

    first = run_app(body, n_nodes=4, seed=3)
    second = run_app(body, n_nodes=4, seed=3)
    assert first.runtime_us == second.runtime_us
    assert (first.stats.matrix == second.stats.matrix).all()
