"""The collective calibration microbenchmark.

One :class:`CollectiveBench` run times ``iterations`` back-to-back
invocations of a single primitive with deterministic payloads, using
either an explicit algorithm (calibration mode) or the registry
default.  ``finalize`` verifies every rank's every iteration against the
closed-form expected result, so a mis-scheduled algorithm fails loudly
instead of producing a plausible runtime.

This is what :func:`repro.harness.sweeps.measure_algorithms` and the
``collective_sweep`` harness run; it lives in ``repro.coll`` (not
``repro.apps``) because it benchmarks the machine layer, not a paper
workload.
"""

from __future__ import annotations

import operator
from typing import Generator, List, Optional

import numpy as np

from repro.apps.base import Application
from repro.coll.algorithms import PRIMITIVES
from repro.gas.runtime import Proc

__all__ = ["CollectiveBench", "VECTOR_ITEMS"]

#: Elements of the allreduce test vector (sliced into P ring chunks).
VECTOR_ITEMS = 16


class CollectiveBench(Application):
    """Time ``iterations`` invocations of one collective primitive.

    Parameters
    ----------
    primitive:
        One of :data:`repro.coll.algorithms.PRIMITIVES`.
    algo:
        Explicit algorithm name, or ``None`` for the registry default.
    size:
        Declared wire size (bytes): the whole value for broadcast /
        allreduce, the per-rank block otherwise.
    bulk:
        Move payloads as bulk transfers (pay ``G`` per byte).
    iterations:
        Back-to-back invocations inside the timed region.
    """

    name = "CollBench"

    def __init__(self, primitive: str = "allreduce",
                 algo: Optional[str] = None, size: int = 32,
                 bulk: bool = False, iterations: int = 4) -> None:
        if primitive not in PRIMITIVES:
            raise ValueError(f"unknown primitive {primitive!r}")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if size < 1:
            raise ValueError("size must be >= 1")
        self.primitive = primitive
        self.algo = algo
        self.size = size
        self.bulk = bulk
        self.iterations = iterations
        self._n_nodes = 1

    def configure(self, n_nodes: int, seed: int) -> None:
        self._n_nodes = n_nodes

    def setup_rank(self, proc: Proc) -> Generator:
        proc.state["collbench"] = {"results": []}
        return
        yield  # pragma: no cover

    def run_rank(self, proc: Proc) -> Generator:
        results = proc.state["collbench"]["results"]
        for iteration in range(self.iterations):
            got = yield from self._invoke(proc, iteration)
            results.append(got)

    def _invoke(self, proc: Proc, iteration: int) -> Generator:
        kind, n, rank = self.primitive, proc.n_ranks, proc.rank
        if kind == "barrier":
            yield from proc.barrier(algo=self.algo)
            return "ok"
        if kind == "broadcast":
            value = ("bcast", iteration) if rank == 0 else None
            got = yield from proc.broadcast(
                value, root=0, size=self.size, bulk=self.bulk,
                algo=self.algo)
            return got
        if kind == "allreduce":
            vec = np.arange(VECTOR_ITEMS, dtype=np.int64) + rank \
                + iteration
            got = yield from proc.allreduce(
                vec, operator.add, size=self.size, bulk=self.bulk,
                elementwise=True, algo=self.algo)
            return got
        if kind == "gather":
            got = yield from proc.gather(
                (rank, iteration), root=0, size=self.size,
                bulk=self.bulk, algo=self.algo)
            return got
        if kind == "allgather":
            got = yield from proc.allgather(
                (rank, iteration), size=self.size, bulk=self.bulk,
                algo=self.algo)
            return got
        # alltoall: rank s delivers (s, d, i) to rank d.
        values = [(rank, d, iteration) for d in range(n)]
        got = yield from proc.alltoall(
            values, size=self.size, bulk=self.bulk, dense=True,
            algo=self.algo)
        return got

    # -- correctness ---------------------------------------------------------
    def _expected(self, rank: int, n: int, iteration: int):
        kind = self.primitive
        if kind == "barrier":
            return "ok"
        if kind == "broadcast":
            return ("bcast", iteration)
        if kind == "allreduce":
            base = np.arange(VECTOR_ITEMS, dtype=np.int64)
            return base * n + sum(r + iteration for r in range(n))
        if kind == "gather":
            if rank != 0:
                return None
            return [(r, iteration) for r in range(n)]
        if kind == "allgather":
            return [(r, iteration) for r in range(n)]
        return [(s, rank, iteration) for s in range(n)]

    def finalize(self, procs: List[Proc]):
        for proc in procs:
            results = proc.state["collbench"]["results"]
            if len(results) != self.iterations:
                raise ValueError(
                    f"rank {proc.rank}: {len(results)} results, "
                    f"expected {self.iterations}")
            for iteration, got in enumerate(results):
                want = self._expected(proc.rank, proc.n_ranks, iteration)
                if isinstance(want, np.ndarray):
                    match = isinstance(got, np.ndarray) and \
                        np.array_equal(got, want)
                else:
                    match = got == want
                if not match:
                    raise ValueError(
                        f"{self.primitive} iteration {iteration} rank "
                        f"{proc.rank}: got {got!r}, expected {want!r}")
        return f"{self.primitive}:ok"
