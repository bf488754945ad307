"""Failure injection: the runtime must fail loudly, not hang or lie."""

import pytest

from repro import Cluster
from repro.apps.base import Application
from repro.gas.sync import DistributedLock


class _Lambda(Application):
    name = "fault-app"

    def __init__(self, body):
        self._body = body

    def run_rank(self, proc):
        yield from self._body(proc)


def run_app(body, n_nodes=3, **kw):
    return Cluster(n_nodes=n_nodes, **kw).run(_Lambda(body))


def test_application_exception_propagates():
    def body(proc):
        yield from proc.compute(1.0)
        if proc.rank == 1:
            raise RuntimeError("injected app bug")

    with pytest.raises(RuntimeError, match="injected app bug"):
        run_app(body)


def test_hung_rank_hits_run_limit():
    def body(proc):
        if proc.rank == 0:
            # Waits forever on a condition nobody satisfies.
            yield from proc.am.wait_until(lambda: False)
        else:
            yield from proc.compute(10.0)

    with pytest.raises(TimeoutError):
        run_app(body, run_limit_us=10_000.0)


def test_mismatched_collectives_hit_run_limit():
    def body(proc):
        # Rank 0 skips a barrier everyone else enters: classic SPMD bug.
        if proc.rank != 0:
            yield from proc.barrier()
        yield from proc.compute(1.0)

    with pytest.raises(TimeoutError):
        run_app(body, run_limit_us=10_000.0)


def test_unknown_handler_name_is_loud():
    def body(proc):
        if proc.rank == 0:
            yield from proc.am.send_request(1, "no_such_handler", 0)
        yield from proc.barrier()

    from repro.am.layer import AmError
    with pytest.raises(AmError, match="no_such_handler"):
        run_app(body)


def test_out_of_range_global_index_is_loud():
    def body(proc):
        arr = proc.allocate(8, name="oob")
        yield from proc.barrier()
        yield from proc.read(arr, 8)

    with pytest.raises(IndexError):
        run_app(body)


def test_releasing_unheld_local_lock_is_loud():
    def body(proc):
        lock = DistributedLock(home_rank=proc.rank, lock_id=1)
        yield from proc.unlock(lock)

    with pytest.raises(RuntimeError, match="does not hold"):
        run_app(body, n_nodes=1)


def test_negative_compute_rejected():
    def body(proc):
        yield from proc.compute(-5.0)

    with pytest.raises(ValueError):
        run_app(body, n_nodes=1)


@pytest.mark.parametrize("bad, message", [
    (float("nan"), "non-finite timeout delay: nan"),
    (float("inf"), "non-finite timeout delay: inf"),
    (-1, "negative timeout delay: -1.0")])
def test_bad_compute_is_rejected_before_it_is_charged(bad, message):
    """NaN is neither ``< 0`` nor ``> 0``: it used to charge no time and
    turn ``node.compute_us`` into NaN for the rest of the run."""
    charged = []

    def body(proc):
        yield from proc.compute(2)
        try:
            yield from proc.compute(bad)
        finally:
            charged.append((proc.node.compute_us, proc.sim.now))

    with pytest.raises(ValueError, match=message):
        run_app(body, n_nodes=1)
    assert charged == [(2.0, 2.0)]


def test_unsynced_writes_still_complete_via_runtime_drain():
    # An app that forgets proc.sync(): the runtime's teardown drains
    # outstanding writes, so the data still lands and the run ends.
    def body(proc):
        arr = proc.allocate(proc.n_ranks, name="lazy")
        proc.state["lazy"] = arr
        yield from proc.barrier()
        peer = (proc.rank + 1) % proc.n_ranks
        yield from proc.write(arr, peer, 42)
        # no sync() here -- deliberately sloppy

    result = run_app(body, n_nodes=3)
    assert result.runtime_us > 0


def test_write_to_invalid_mode_rejected():
    def body(proc):
        arr = proc.allocate(4, name="mode")
        yield from proc.write(arr, 0, 1, mode="xor")

    with pytest.raises(ValueError, match="unknown write mode"):
        run_app(body, n_nodes=1)
