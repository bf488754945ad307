"""A simple seek-plus-streaming disk model.

NOW-sort in the paper is disk-to-disk: each node reads records from one
disk and writes to another, each spindle delivering about 5.5 MB/s.  The
paper's Figure 8 result — NOW-sort ignores network bandwidth until the
network is slower than a single disk — falls out of this model.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Resource, Simulator

__all__ = ["Disk", "DEFAULT_DISK_MB_S"]

#: Streaming bandwidth of one spindle (paper reference [4]): 5.5 MB/s.
DEFAULT_DISK_MB_S = 5.5


class Disk:
    """One spindle: exclusive arm, fixed streaming bandwidth.

    Transfers are generators so callers overlap disk time with
    communication exactly the way NOW-sort overlaps its phases.
    """

    def __init__(self, sim: Simulator, name: str = "disk",
                 bandwidth_mb_s: float = DEFAULT_DISK_MB_S,
                 seek_us: float = 10_000.0) -> None:
        if bandwidth_mb_s <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth_mb_s}")
        if seek_us < 0:
            raise ValueError(f"seek time must be >= 0, got {seek_us}")
        self.sim = sim
        self.name = name
        self.bandwidth_mb_s = bandwidth_mb_s
        self.seek_us = seek_us
        self._arm = Resource(sim, capacity=1, name=f"arm:{name}")
        self.bytes_transferred = 0
        self.busy_us = 0.0

    @property
    def us_per_byte(self) -> float:
        """Streaming transfer time per byte (µs)."""
        return 1.0 / self.bandwidth_mb_s

    def transfer(self, nbytes: int, seek: bool = False) -> Generator:
        """Read or write ``nbytes`` sequentially; optionally seek first.

        Sequential streaming (the common case for the sort) passes
        ``seek=False``; the first access of a pass should pay the seek.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer: {nbytes}")
        request = self._arm.request()
        yield request
        try:
            duration = nbytes * self.us_per_byte
            if seek:
                duration += self.seek_us
            self.bytes_transferred += nbytes
            self.busy_us += duration
            yield duration
        finally:
            self._arm.release()

    def read(self, nbytes: int, seek: bool = False) -> Generator:
        """Alias of :meth:`transfer` for readability at call sites."""
        yield from self.transfer(nbytes, seek=seek)

    def write(self, nbytes: int, seek: bool = False) -> Generator:
        """Alias of :meth:`transfer` for readability at call sites."""
        yield from self.transfer(nbytes, seek=seek)
