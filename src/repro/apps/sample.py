"""Sample sort (the paper's ``Sample``).

A probabilistic sort: ``p - 1`` splitter values are chosen from an
oversampled set, broadcast to all processors, every key is sent to the
processor owning its splitter interval, and each processor sorts what it
received locally (a radix sort in the paper).

The interesting architectural property is the *unbalanced* all-to-all of
the distribution phase — processors receive different numbers of keys
(the vertical bars of Figure 4d).  The bias is made explicit here by
drawing keys from a non-uniform distribution.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from repro.am.layer import HandlerTable
from repro.apps.base import Application
from repro.gas.runtime import Proc

__all__ = ["SampleSort"]


class SampleSort(Application):
    """Parallel sample sort of 16-bit keys.

    Parameters
    ----------
    keys_per_proc:
        Keys initially held by each processor.
    """

    name = "Sample"

    #: Samples contributed per processor for splitter selection.
    oversample = 8
    #: Width of the keys.
    key_bits = 16
    #: Exponent shaping the key distribution (1.0 would be uniform; a
    #: larger one concentrates keys in the low range, producing the
    #: paper's communication imbalance).
    skew = 1.6

    def __init__(self, keys_per_proc: int = 2048) -> None:
        if keys_per_proc < 1:
            raise ValueError("keys_per_proc must be >= 1")
        self.keys_per_proc = keys_per_proc
        self._input: np.ndarray = np.empty(0, dtype=np.int64)

    @classmethod
    def scaled(cls, scale: float = 1.0) -> "SampleSort":
        return cls(keys_per_proc=max(16, int(2048 * scale)))

    # -- lifecycle -----------------------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        rng = np.random.RandomState(seed + 0x5A3)
        total = n_nodes * self.keys_per_proc
        top = float((1 << self.key_bits) - 1)
        uniform = rng.random_sample(total)
        self._input = (top * uniform ** self.skew).astype(np.int64)

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("sample_key", _key_handler)

    def setup_rank(self, proc: Proc) -> Generator:
        lo = proc.rank * self.keys_per_proc
        proc.state["sample"] = {
            "keys": self._input[lo:lo + self.keys_per_proc].copy(),
            "samples": [],
            "received": [],
            "app": self,
        }
        return
        yield  # pragma: no cover

    # -- the timed program ---------------------------------------------------------
    def run_rank(self, proc: Proc) -> Generator:
        state = proc.state["sample"]
        keys = state["keys"]

        # Phase 0: splitter selection.  Every rank contributes
        # `oversample` local samples to a gather at rank 0; rank 0
        # sorts the sample set, picks p - 1 splitters, and broadcasts
        # them (both collectives via repro.coll).
        samples = [int(keys[proc.rng.randrange(len(keys))])
                   for _ in range(self.oversample)]
        yield from proc.compute(proc.cost.ops(4 * self.oversample))
        per_rank = yield from proc.gather(
            samples, root=0, size=max(32, 4 * self.oversample))
        splitters = None
        if proc.rank == 0:
            state["samples"] = [value for contribution in per_rank
                                for value in contribution]
            pool = sorted(state["samples"])
            stride = len(pool) // proc.n_ranks
            splitters = [pool[stride * (i + 1)]
                         for i in range(proc.n_ranks - 1)]
            yield from proc.compute(
                proc.cost.keys(len(pool)))  # sort the sample pool
        splitters = yield from proc.broadcast(
            splitters, root=0, size=max(32, 4 * (proc.n_ranks - 1)))
        bounds = np.asarray(splitters, dtype=np.int64)

        # Phase 1: distribution.  Each key goes to the rank owning its
        # splitter interval (short write-based messages, all-to-all).
        destinations = np.searchsorted(bounds, keys, side="right")
        yield from proc.compute(proc.cost.keys(len(keys)))
        for key, dst in zip(keys.tolist(), destinations.tolist()):
            if dst == proc.rank:
                state["received"].append(key)
            else:
                yield from proc.am.send_request(dst, "sample_key", key)
        yield from proc.am.drain()
        yield from proc.barrier()

        # Phase 2: local sort of whatever arrived.
        state["received"].sort()
        passes = max(1, self.key_bits // 8)
        yield from proc.compute(
            proc.cost.keys(passes * max(1, len(state["received"]))))
        yield from proc.barrier()

    # -- results -------------------------------------------------------------------
    def finalize(self, procs: List[Proc]) -> np.ndarray:
        gathered: List[int] = []
        for proc in procs:
            gathered.extend(proc.state["sample"]["received"])
        merged = np.asarray(gathered, dtype=np.int64)
        expected = np.sort(self._input)
        if not np.array_equal(merged, expected):
            raise AssertionError("sample sort produced wrong output")
        # Imbalance factor (max bucket / average) for diagnostics.
        sizes = [len(p.state["sample"]["received"]) for p in procs]
        return {"sorted": merged,
                "bucket_sizes": sizes}


def _key_handler(am, packet) -> None:
    """Deposit a routed key at its destination processor."""
    am.host.state["sample"]["received"].append(packet.payload)
