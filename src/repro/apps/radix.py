"""Radix sort (the paper's ``Radix``), after Dusseau et al. [19].

Sorts 16-bit keys spread block-wise over the processors.  Each pass over
one digit runs three phases:

1. **Local histogram** -- count keys per bucket (local compute).
2. **Global histogram** -- a *pipelined cyclic shift*: running per-bucket
   prefix counts flow around the processor ring in bucket batches, so
   processor ``p`` learns how many keys with each digit live on lower
   ranks.  This phase is serialised along the ring — the paper's
   "serialization effect" that makes Radix hyper-sensitive to overhead
   on 32 nodes — and paints the dark off-diagonal line of Figure 4a.
3. **Distribution** -- every key is written (short, pipelined remote
   write) to its globally-ranked position: the balanced grey background
   of Figure 4a.

The sort is stable per pass, hence correct over multiple passes.
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from repro.am.layer import HandlerTable
from repro.apps.base import Application
from repro.gas.runtime import Proc

__all__ = ["RadixSort"]


class RadixSort(Application):
    """Parallel radix sort of 16-bit keys.

    Parameters
    ----------
    keys_per_proc:
        Keys initially held by each processor (paper: 500k/1M; default
        scaled down so a full sweep stays fast).
    """

    name = "Radix"

    #: Bits per digit: 256 buckets per pass.
    radix_bits = 8
    #: Key width: two passes, like the paper's two iterations.
    key_bits = 16
    #: Buckets per cyclic-shift message.  The paper's radix-16 sort
    #: moves thousands of counter messages per pass; with our scaled
    #: 8-bit radix a small batch keeps the histogram phase's message
    #: count (and its serialisation) proportionally realistic — and
    #: paints Figure 4a's dark ring line.
    scan_batch = 16

    n_buckets = 1 << radix_bits
    n_passes = -(-key_bits // radix_bits)

    def __init__(self, keys_per_proc: int = 2048) -> None:
        if keys_per_proc < 1:
            raise ValueError("keys_per_proc must be >= 1")
        self.keys_per_proc = keys_per_proc
        self._input: np.ndarray = np.empty(0, dtype=np.int64)

    @classmethod
    def scaled(cls, scale: float = 1.0) -> "RadixSort":
        """An instance with inputs scaled by ``scale``."""
        return cls(keys_per_proc=max(16, int(2048 * scale)))

    # -- lifecycle ----------------------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        rng = np.random.RandomState(seed + 0xBEEF)
        total = n_nodes * self.keys_per_proc
        self._input = rng.randint(
            0, 1 << self.key_bits, size=total).astype(np.int64)

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("radix_scan", _scan_handler)

    def setup_rank(self, proc: Proc) -> Generator:
        src = proc.allocate(len(self._input), name="radix_src",
                            item_bytes=4)
        dst = proc.allocate(len(self._input), name="radix_dst",
                            item_bytes=4)
        proc.state["radix"] = {
            "arrays": (src, dst),
            "app": self,
            "scan_batches": {},
        }
        start = src.local_start(proc.rank)
        local = proc.local(src)
        local[:] = self._input[start:start + len(local)]
        return
        yield  # pragma: no cover

    # -- the timed program ----------------------------------------------------
    def run_rank(self, proc: Proc) -> Generator:
        state = proc.state["radix"]
        src, dst = state["arrays"]
        for pass_index in range(self.n_passes):
            yield from self._one_pass(proc, state, src, dst, pass_index)
            src, dst = dst, src
        state["result_array"] = src

    def _one_pass(self, proc: Proc, state: dict, src, dst,
                  pass_index: int) -> Generator:
        shift = pass_index * self.radix_bits
        mask = self.n_buckets - 1
        local = proc.local(src)
        digits = (local >> shift) & mask

        # Phase 1: local histogram.
        counts = np.bincount(digits, minlength=self.n_buckets)
        yield from proc.compute(proc.cost.keys(len(local)))

        # Phase 2: global histogram via pipelined cyclic shift.
        prefix_lower, totals = yield from self._global_histogram(
            proc, state, counts, pass_index)

        # Global base offset of each bucket (exclusive prefix over
        # bucket totals), then this rank's starting slot inside each
        # bucket's region.
        bucket_base = np.concatenate(([0], np.cumsum(totals)[:-1]))
        my_base = bucket_base + prefix_lower
        yield from proc.compute(proc.cost.ops(2 * self.n_buckets))

        # Phase 3: distribution.  Stable local ranking within buckets by
        # processing keys in order.
        next_slot = my_base.copy()
        yield from proc.compute(proc.cost.keys(len(local)))
        for key, digit in zip(local.tolist(), digits.tolist()):
            position = int(next_slot[digit])
            next_slot[digit] += 1
            yield from proc.write(dst, position, key)
        yield from proc.sync()
        yield from proc.barrier()

    def _global_histogram(self, proc: Proc, state: dict,
                          counts: np.ndarray,
                          pass_index: int) -> Generator:
        """Cyclic shift of per-bucket running counts around the ring.

        Rank ``p`` receives the prefix counts of ranks ``< p`` from
        ``p - 1`` (a stream of bucket batches), adds its own counts,
        and forwards the stream to ``p + 1``; a second lap carries the
        global totals back around.  Each rank accumulates the whole
        stream before forwarding (the counters are summed in place, so
        the phase is store-and-forward per processor), which makes the
        phase's serial length proportional to ``P × radix`` — exactly
        the serialization Section 5.1 blames for Radix's
        hyper-sensitivity to overhead on 32 nodes, where this phase
        grows from ~20% of the baseline runtime to ~60% at o = 100 µs.
        """
        n = proc.n_ranks
        batches = _batch_bounds(self.n_buckets, self.scan_batch)
        if n == 1:
            return np.zeros_like(counts), counts.copy()

        inbox = state["scan_batches"]
        prefix_lower = np.zeros_like(counts)
        right = (proc.rank + 1) % n

        def recv_lap(lap: str) -> Generator:
            values = np.zeros_like(counts)
            for batch_id, (lo, hi) in enumerate(batches):
                tag = (lap, pass_index, batch_id)
                yield from proc.am.wait_until(lambda t=tag: t in inbox)
                values[lo:hi] = np.asarray(inbox.pop(tag))
            return values

        def send_lap(lap: str, values: np.ndarray) -> Generator:
            for batch_id, (lo, hi) in enumerate(batches):
                tag = (lap, pass_index, batch_id)
                yield from proc.am.send_request(
                    right, "radix_scan",
                    (tag, values[lo:hi].tolist()),
                    size=max(32, 4 * (hi - lo)))

        # Lap 1: running prefix (rank 0 originates, P-1 terminates).
        if proc.rank > 0:
            prefix_lower = yield from recv_lap("scan")
        running = prefix_lower + counts
        yield from proc.compute(proc.cost.ops(self.n_buckets))
        if proc.rank != n - 1:
            yield from send_lap("scan", running)

        # Lap 2: global totals (rank P-1 originates, P-2 terminates).
        if proc.rank == n - 1:
            totals = running
        else:
            totals = yield from recv_lap("totals")
        if proc.rank != (n - 2) % n:
            yield from send_lap("totals", totals)
        yield from proc.compute(proc.cost.ops(self.n_buckets))
        return prefix_lower, totals

    # -- results -----------------------------------------------------------------
    def finalize(self, procs: List[Proc]) -> np.ndarray:
        """Gather the sorted keys and verify the sort."""
        result_array = procs[0].state["radix"]["result_array"]
        pieces = [proc.local(result_array) for proc in procs]
        merged = np.concatenate(pieces)
        expected = np.sort(self._input, kind="stable")
        if not np.array_equal(merged, expected):
            raise AssertionError("radix sort produced wrong output")
        return merged


def _batch_bounds(n_buckets: int, batch: int) -> List[tuple]:
    return [(lo, min(lo + batch, n_buckets))
            for lo in range(0, n_buckets, batch)]


def _scan_handler(am, packet) -> None:
    """Deposit a cyclic-shift batch into the receiving rank's inbox."""
    tag, values = packet.payload
    am.host.state["radix"]["scan_batches"][tag] = values
