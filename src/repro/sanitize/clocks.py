"""Per-rank vector clocks driven by message traffic.

The happens-before relation of an SPMD run on this simulator is exactly
the transitive closure of (a) program order within a rank and (b) every
host-level Active Message delivery.  Barriers, collectives, lock
grant/release chains and write acknowledgements are all *built from*
those messages, so piggybacking a clock snapshot on each host-level
send and joining at delivery captures the full relation with no
special-casing per synchronisation primitive.

The protocol (FastTrack-style, send-increment only):

* each rank ``r`` keeps a clock ``C_r`` of length ``n_ranks``;
* on every host-level send, ``r`` increments ``C_r[r]`` and attaches
  ``snapshot = C_r`` to the packet (epochs are 1-based: ``C_r[q] == 0``
  means "never heard from ``q``", distinct from "saw its first send");
* on every host-level delivery, the receiver joins the attached
  snapshot element-wise into its own clock.

A prior access by rank ``q`` at tick ``t`` (``t = C_q[q]`` when it was
issued, i.e. the number of sends ``q`` had made) happens-before rank
``r``'s current point iff ``C_r[q] > t``: the snapshot attached to
``q``'s next send carries ``t + 1``, so any message chain from after
the access carries the evidence — and nothing sent before it does.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["ClockSet"]


class ClockSet:
    """The vector clocks of every rank in one run: one int64 row per
    rank, so that a join is one ``np.maximum`` and a snapshot one copy.
    Each rank's own component is also kept as a Python int (only its
    own sends move it), which is what an access's epoch reads."""

    __slots__ = ("n_ranks", "_clocks", "_ticks")

    def __init__(self, n_ranks: int) -> None:
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        self.n_ranks = n_ranks
        self._clocks: List[np.ndarray] = list(
            np.zeros((n_ranks, n_ranks), dtype=np.int64))
        self._ticks: List[int] = [0] * n_ranks

    def tick(self, rank: int) -> np.ndarray:
        """Advance ``rank``'s own component for an outgoing message,
        then snapshot (so receivers of this send happen-after every
        access ``rank`` made before it)."""
        ticks = self._ticks
        ticks[rank] = tick = ticks[rank] + 1
        clock = self._clocks[rank]
        clock[rank] = tick
        return clock.copy()

    def join(self, rank: int, snapshot: np.ndarray) -> None:
        """Element-wise max of ``rank``'s clock with a received
        snapshot (the happens-before edge of a message delivery)."""
        clock = self._clocks[rank]
        np.maximum(clock, snapshot, out=clock)

    def clock_of(self, rank: int) -> np.ndarray:
        """``rank``'s live clock (read-only by convention)."""
        return self._clocks[rank]

    def tick_of(self, rank: int) -> int:
        """``rank``'s own current component (its access epoch)."""
        return self._ticks[rank]

    def ordered(self, observer: int, owner: int, tick: int) -> bool:
        """Whether a prior access by ``owner`` at ``tick`` happens-
        before ``observer``'s current program point."""
        return bool(self._clocks[observer][owner] > tick)
