"""Radb: the bulk-message restructuring of radix sort.

Identical to :class:`~repro.apps.radix.RadixSort` except for the
distribution phase: after the global histogram, each processor groups
its keys by *destination processor* and ships the groups through one
sparse bulk personalized all-to-all (``repro.coll``); each processor
then scatters the pairs it received into its local block.  Per pass,
each processor sends at most ``P - 1`` bulk messages instead of one
short message per key (Section 4.1's "Radb").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Generator

import numpy as np

from repro.apps.radix import RadixSort
from repro.gas.runtime import Proc

__all__ = ["RadixBulk"]

#: Wire bytes per routed (position, key) pair.
PAIR_BYTES = 8


class RadixBulk(RadixSort):
    """Bulk-message radix sort (the paper's ``Radb``)."""

    name = "Radb"

    #: Radb is the restructured-for-bulk program: its histogram phase
    #: packs the whole counter table into a single message per ring hop,
    #: unlike Radix's fine-grained cyclic shift.
    scan_batch = 256

    @classmethod
    def scaled(cls, scale: float = 1.0) -> "RadixBulk":
        return cls(keys_per_proc=max(16, int(2048 * scale)))

    def _one_pass(self, proc: Proc, state: dict, src, dst,
                  pass_index: int) -> Generator:
        shift = pass_index * self.radix_bits
        mask = self.n_buckets - 1
        local = proc.local(src)
        digits = (local >> shift) & mask

        counts = np.bincount(digits, minlength=self.n_buckets)
        yield from proc.compute(proc.cost.keys(len(local)))

        prefix_lower, totals = yield from self._global_histogram(
            proc, state, counts, pass_index)
        bucket_base = np.concatenate(([0], np.cumsum(totals)[:-1]))
        my_base = bucket_base + prefix_lower
        yield from proc.compute(proc.cost.ops(2 * self.n_buckets))

        # Distribution: group (position, key) pairs by destination rank,
        # then one bulk store per destination.
        next_slot = my_base.copy()
        groups = defaultdict(list)
        dst_local = proc.local(dst)
        dst_lo = dst.local_start(proc.rank)
        for key, digit in zip(local.tolist(), digits.tolist()):
            position = int(next_slot[digit])
            next_slot[digit] += 1
            owner, local_index = dst.owner_of(position)
            if owner == proc.rank:
                dst_local[local_index] = key
            else:
                groups[owner].append((local_index, key))
        yield from proc.compute(proc.cost.keys(2 * len(local)))

        # Sparse bulk all-to-all: one message per destination that owns
        # any of this rank's keys (its completion barrier replaces the
        # explicit end-of-pass barrier the handler version needed).
        outgoing = [None] * proc.n_ranks
        wire_sizes = [0] * proc.n_ranks
        for owner in sorted(groups):
            outgoing[owner] = groups[owner]
            wire_sizes[owner] = PAIR_BYTES * len(groups[owner])
        incoming = yield from proc.alltoall(outgoing, sizes=wire_sizes,
                                            bulk=True)
        for sender, pairs in enumerate(incoming):
            if sender == proc.rank or pairs is None:
                continue
            for local_index, key in pairs:
                dst_local[local_index] = key
