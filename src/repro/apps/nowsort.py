"""NOW-sort: the disk-to-disk parallel sort (Arpaci-Dusseau et al. [4]).

The 1997 MinuteSort record holder, reduced to its two-pass structure:

* **Phase 1** -- each node streams records off its read disk in chunks,
  partitions them by key range, and ships each partition to its
  destination node with *one-way bulk Active Messages*, at whatever rate
  the disk can deliver.  Communication fully overlaps disk I/O; the
  perfectly balanced all-to-all paints the solid square of Figure 4i.
* **Phase 2** -- each node sorts what it received (local compute) and
  streams it to its write disk.

Each node uses two spindles at ~5.5 MB/s: one for reading, one for
writing.  Because the disk, not the network, paces phase 1, NOW-sort
ignores reduced network bandwidth until bulk bandwidth drops below a
single disk's rate (the paper's Figure 8 punchline).
"""

from __future__ import annotations

from typing import Generator, List

import numpy as np

from repro.am.layer import HandlerTable
from repro.apps.base import Application
from repro.gas.runtime import Proc

__all__ = ["NowSort"]

#: The paper's record size (bytes); the key is the leading 32 bits.
RECORD_BYTES = 100


class NowSort(Application):
    """The disk-to-disk sort.

    Parameters
    ----------
    records_per_proc:
        Records initially on each node's read disk.
    """

    name = "NOW-sort"

    #: Records read off disk (and partitioned/shipped) per chunk.
    chunk_records = 64
    #: Key width; uniform keys are range-partitioned over the nodes.
    key_bits = 24

    def __init__(self, records_per_proc: int = 512) -> None:
        if records_per_proc < 1:
            raise ValueError("records_per_proc must be >= 1")
        self.records_per_proc = records_per_proc
        self._keys: np.ndarray = np.empty(0, dtype=np.int64)
        self._n_nodes = 0

    @classmethod
    def scaled(cls, scale: float = 1.0) -> "NowSort":
        return cls(records_per_proc=max(64, int(512 * scale)))

    # -- input -----------------------------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        self._n_nodes = n_nodes
        rng = np.random.RandomState(seed + 0xD15C)
        total = n_nodes * self.records_per_proc
        self._keys = rng.randint(0, 1 << self.key_bits,
                                 size=total).astype(np.int64)

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("nowsort_records", _records_handler)

    def partition_of(self, key: int) -> int:
        """Range partition: node owning ``key``'s interval."""
        span = (1 << self.key_bits) // self._n_nodes + 1
        return min(self._n_nodes - 1, int(key) // span)

    def setup_rank(self, proc: Proc) -> Generator:
        lo = proc.rank * self.records_per_proc
        proc.state["nowsort"] = {
            "on_disk": self._keys[lo:lo + self.records_per_proc],
            "received": [],
            "sorted": None,
        }
        return
        yield  # pragma: no cover

    # -- the timed program ---------------------------------------------------------
    def run_rank(self, proc: Proc) -> Generator:
        state = proc.state["nowsort"]
        read_disk, write_disk = proc.disk(0), proc.disk(1)

        # Phase 1: read, partition, ship.  The bulk sends are one-way
        # AMs issued as each chunk comes off the disk, so the network
        # runs at disk speed unless it is the slower device.
        on_disk = state["on_disk"]
        first_chunk = True
        for start in range(0, len(on_disk), self.chunk_records):
            chunk = on_disk[start:start + self.chunk_records]
            yield from read_disk.read(len(chunk) * RECORD_BYTES,
                                      seek=first_chunk)
            first_chunk = False
            buckets = {}
            for key in chunk.tolist():
                buckets.setdefault(self.partition_of(key), []).append(key)
            yield from proc.compute(proc.cost.keys(len(chunk)))
            for dst, keys in sorted(buckets.items()):
                if dst == proc.rank:
                    state["received"].extend(keys)
                else:
                    yield from proc.am.bulk_oneway(
                        dst, "nowsort_records", keys,
                        RECORD_BYTES * len(keys))
        yield from proc.am.drain()
        yield from proc.barrier()

        # Phase 2: local sort, then stream to the write disk.
        received = state["received"]
        received.sort()
        state["sorted"] = list(received)
        passes = max(1, self.key_bits // 8)
        yield from proc.compute(
            proc.cost.keys(passes * max(1, len(received))))
        yield from write_disk.write(len(received) * RECORD_BYTES,
                                    seek=True)
        yield from proc.barrier()

    # -- results ----------------------------------------------------------------
    def finalize(self, procs: List[Proc]) -> dict:
        gathered: List[int] = []
        for proc in procs:
            gathered.extend(proc.state["nowsort"]["sorted"])
        merged = np.asarray(gathered, dtype=np.int64)
        expected = np.sort(self._keys)
        if not np.array_equal(merged, expected):
            raise AssertionError("NOW-sort produced wrong output")
        return {
            "sorted": merged,
            "received_per_node": [
                len(p.state["nowsort"]["sorted"]) for p in procs],
        }


def _records_handler(am, packet) -> None:
    """Deposit a shipped partition at its destination node."""
    am.host.state["nowsort"]["received"].extend(packet.payload)
