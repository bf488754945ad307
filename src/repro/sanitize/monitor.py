"""The live simsan monitor wired into one :class:`Cluster` run.

One :class:`Sanitizer` instance subscribes to the run's
:class:`~repro.instruments.probes.Probes`, so every rank fires its hooks.
It owns the vector clocks (advanced purely by host-level message
traffic, see :mod:`repro.sanitize.clocks`), the shadow memory (race
checks, see :mod:`repro.sanitize.shadow`), and the wait-state book
keeping the deadlock detector (:mod:`repro.sanitize.deadlock`) walks.

Every hook is O(small) and adds *zero simulated cost*: a sanitized run
produces bit-identical ``runtime_us``/``events_processed`` to the same
run with the flag off.  The flag-off case never reaches this module at
all -- with no sanitizer subscribed, its hooks resolve to ``None``.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional, Tuple

from repro.sanitize.clocks import ClockSet
from repro.sanitize.reports import RaceReport, SanitizerReport, WaitEdge
from repro.sanitize.shadow import ShadowMemory

__all__ = ["Sanitizer", "call_site"]

_INTERNAL_FILES: Optional[frozenset] = None


def _internal_files() -> frozenset:
    """Filenames of the runtime layers to skip when attributing an
    access to application source.  Built lazily so importing this
    module never drags in the AM/GAS stack."""
    global _INTERNAL_FILES  # simlint: disable=module-mutable-state - memoised constant
    if _INTERNAL_FILES is None:
        import repro.am.layer
        import repro.gas.runtime
        import repro.gas.sync
        import repro.instruments.probes
        import repro.sanitize.clocks
        import repro.sanitize.shadow
        modules = (repro.am.layer, repro.gas.runtime, repro.gas.sync,
                   repro.instruments.probes,  # a fan-out's frame
                   repro.sanitize.clocks, repro.sanitize.shadow)
        files = {__file__}
        for module in modules:
            files.add(module.__file__)
        _INTERNAL_FILES = frozenset(files)
    return _INTERNAL_FILES


def call_site() -> str:
    """``file.py:line`` of the nearest application frame on the stack.

    Generator delegation (``yield from``) keeps the whole chain of
    application generators on the Python stack while runtime code
    executes, so walking past the runtime modules lands on the app
    statement that issued the access.
    """
    internal = _internal_files()
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename in internal:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


class Sanitizer:
    """Happens-before race detector + wait-for bookkeeping for one run."""

    def __init__(self, n_nodes: int, sim: "Simulator",  # noqa: F821
                 granularity: int = 1) -> None:
        self.n_nodes = n_nodes
        self.sim = sim
        self.clocks = ClockSet(n_nodes)
        self.shadow = ShadowMemory(self.clocks, granularity=granularity)
        self.messages_clocked = 0
        #: Per-rank stack of ``(kind, peers, detail)`` wait annotations;
        #: the top entry is what the rank is blocked on right now (nested
        #: waits occur: an rpc inside a barrier round).  A WaitEdge is
        #: built only when one is asked for: there is a wait per rpc.
        self._wait_stacks: List[List[Tuple[str, Tuple[int, ...], str]]] = [
            [] for _rank in range(n_nodes)]
        #: rank -> DistributedLock it is currently spinning on.
        self._pursuing: Dict[int, "DistributedLock"] = {}  # noqa: F821
        #: (home_rank, lock_id) -> rank that holds the lock.
        self._lock_holder: Dict[Tuple[int, int], int] = {}

    # -- message clock transport ------------------------------------------
    def on_send(self, rank: int, packet: "Packet") -> None:  # noqa: F821
        """Piggyback ``rank``'s clock on an outgoing host-level packet
        (a NIC retransmission reuses the Packet object)."""
        self.messages_clocked += 1
        packet.clock = self.clocks.tick(rank)

    def on_recv(self, rank: int, packet: "Packet") -> None:  # noqa: F821
        """Join a received packet's clock into the receiving rank."""
        if packet.clock is not None:
            self.clocks.join(rank, packet.clock)

    # -- shared-memory accesses -------------------------------------------
    def on_access(self, rank: int, array: "GlobalArray",  # noqa: F821
                  index: int, kind: str) -> None:
        self.shadow.record(rank, array, index, kind, call_site(),
                           self.sim.now)

    def on_range(self, rank: int, array: "GlobalArray",  # noqa: F821
                 start: int, count: int, kind: str) -> None:
        self.shadow.record_range(rank, array, start, count, kind,
                                 call_site(), self.sim.now)

    # -- wait-state bookkeeping -------------------------------------------
    def on_wait_enter(self, rank: int, kind: str,
                      peers: Tuple[int, ...], detail: str) -> None:
        self._wait_stacks[rank].append((kind, peers, detail))

    def on_wait_exit(self, rank: int) -> None:
        self._wait_stacks[rank].pop()

    def current_wait(self, rank: int) -> Optional[WaitEdge]:
        stack = self._wait_stacks[rank]
        if not stack:
            return None
        kind, peers, detail = stack[-1]
        return WaitEdge(rank=rank, kind=kind, on=peers, detail=detail)

    # -- lock bookkeeping --------------------------------------------------
    def on_lock_wait(self, rank: int,
                     lock: "DistributedLock") -> None:  # noqa: F821
        self._pursuing[rank] = lock

    def on_lock_acquired(self, rank: int,
                         lock: "DistributedLock") -> None:  # noqa: F821
        self._pursuing.pop(rank, None)
        self._lock_holder[(lock.home_rank, lock.lock_id)] = rank

    def on_lock_released(self, rank: int,
                         lock: "DistributedLock") -> None:  # noqa: F821
        self._lock_holder.pop((lock.home_rank, lock.lock_id), None)

    def lock_pursuits(self) -> Dict[int, Tuple["DistributedLock",  # noqa: F821
                                               Optional[int]]]:
        """rank -> (lock it spins on, current holder rank or None)."""
        out = {}
        for rank in sorted(self._pursuing):
            lock = self._pursuing[rank]
            holder = self._lock_holder.get((lock.home_rank, lock.lock_id))
            out[rank] = (lock, holder)
        return out

    # -- results -----------------------------------------------------------
    @property
    def races(self) -> List[RaceReport]:
        return self.shadow.races

    def report(self) -> SanitizerReport:
        """Plain-data summary safe to pickle across the process pool."""
        return SanitizerReport(
            n_nodes=self.n_nodes,
            races=tuple(self.shadow.races),
            accesses_checked=self.shadow.accesses_checked,
            messages_clocked=self.messages_clocked,
            shadow_cells=self.shadow.cell_count)
