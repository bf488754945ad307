"""Per-element shadow state for every :class:`GlobalArray`.

Each tracked element keeps the FastTrack-style minimum needed to detect
races without storing full access histories:

* the last *store* epoch (one ``(rank, tick, site, time, kind)``);
* the latest *load* per rank (a later load by the same rank supersedes
  an earlier one for race purposes: any access ordered after the later
  load that races the earlier one also races the later one);
* the latest *atomic accumulate* per rank, with its mode.

Access classes and what counts as a race:

===========  =========  ===============================================
prior        current    verdict
===========  =========  ===============================================
store        store      race when unordered
store        load       race when unordered
store        accum      race when unordered
load         store      race when unordered
accum        store      race when unordered
accum        accum      race only when *modes differ* (``add`` vs
                        ``min``); same-mode accumulates commute at the
                        owner (remote RMW), as Connect's monotone
                        ``min``-hooking relies on
accum        load       exempt: reading a monotonically-updated cell is
                        the sanctioned concurrent pattern (Connect's
                        pointer chasing)
load         load       never a race
===========  =========  ===============================================

Direct ``proc.local(array)`` numpy access is *not* tracked (documented
limitation): it is this rank's own partition, and the suite uses it
only in phases separated from remote traffic by barriers.

Shadow keys are ``(array_id, element)``.  Array ids are
SPMD-consistent across ranks because allocation is collective and
in-order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sanitize.clocks import ClockSet
from repro.sanitize.reports import AccessSite, RaceReport

__all__ = ["ShadowMemory", "STORES", "ACCUMS", "LOADS"]

STORES = frozenset({"put", "bulk_put"})
ACCUMS = frozenset({"add", "min"})
LOADS = frozenset({"read", "bulk_get"})


class _ShadowCell:
    __slots__ = ("write", "reads", "accums")

    def __init__(self) -> None:
        #: Last store: (rank, tick, site, time_us, kind) or None.
        self.write: Optional[Tuple[int, int, str, float, str]] = None
        #: rank -> (tick, site, time_us) of that rank's latest load.
        self.reads: Dict[int, Tuple[int, str, float]] = {}
        #: rank -> (tick, site, time_us, mode) of the latest accumulate.
        self.accums: Dict[int, Tuple[int, str, float, str]] = {}


class ShadowMemory:
    """Shadow cells plus the deduplicated race reports they produce."""

    def __init__(self, clocks: ClockSet) -> None:
        self._clocks = clocks
        self._cells: Dict[Tuple[int, int], _ShadowCell] = {}
        #: canonical (array_id, site/kind pair) -> report, insertion
        #: ordered (deterministic: the simulator is).
        self._races: Dict[tuple, RaceReport] = {}
        self.accesses_checked = 0

    @property
    def races(self) -> List[RaceReport]:
        return list(self._races.values())

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    # -- recording ---------------------------------------------------------
    def record(self, rank: int, array: "GlobalArray",  # noqa: F821
               index: int, kind: str, site: str, time_us: float) -> None:
        """Check one element access against the shadow state, then fold
        it in.  ``kind`` is one of the access classes above."""
        self.accesses_checked += 1
        key = (array.array_id, index)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _ShadowCell()
        clock = self._clocks.clock_of(rank)
        tick = self._clocks.tick_of(rank)
        # The access as a shadow entry: its AccessSite is built only
        # if it turns out to race.
        access = (rank, tick, site, time_us, kind)
        write = cell.write
        write_races = (write is not None and write[0] != rank
                       and clock[write[0]] <= write[1])
        if kind in LOADS:
            if write_races:
                self._report(array, index, write, access)
            cell.reads[rank] = (tick, site, time_us)
            return
        if kind in ACCUMS:
            if write_races:
                self._report(array, index, write, access)
            for peer in sorted(cell.accums):
                prior_tick, prior_site, prior_time, mode = cell.accums[peer]
                if peer != rank and mode != kind \
                        and clock[peer] <= prior_tick:
                    self._report(array, index,
                                 (peer, prior_tick, prior_site,
                                  prior_time, mode), access)
            cell.accums[rank] = (tick, site, time_us, kind)
            return
        # Stores conflict with every unordered prior access class.
        if write_races:
            self._report(array, index, write, access)
        for peer in sorted(cell.reads):
            prior_tick, prior_site, prior_time = cell.reads[peer]
            if peer != rank and clock[peer] <= prior_tick:
                self._report(array, index,
                             (peer, prior_tick, prior_site, prior_time,
                              "read"), access)
        for peer in sorted(cell.accums):
            prior_tick, prior_site, prior_time, mode = cell.accums[peer]
            if peer != rank and clock[peer] <= prior_tick:
                self._report(array, index,
                             (peer, prior_tick, prior_site, prior_time,
                              mode), access)
        cell.write = access
        cell.reads.clear()
        cell.accums.clear()

    def record_range(self, rank: int, array: "GlobalArray",  # noqa: F821
                     start: int, count: int, kind: str, site: str,
                     time_us: float) -> None:
        """Record a contiguous bulk access element by element."""
        for index in range(start, start + count):
            self.record(rank, array, index, kind, site, time_us)

    # -- reporting ---------------------------------------------------------
    def _report(self, array: "GlobalArray", index: int,  # noqa: F821
                prior: tuple, access: tuple) -> None:
        """Record a race between two ``(rank, tick, site, time_us,
        kind)`` shadow entries."""
        # Order-insensitive dedup: the same site pair observed in either
        # order (possible across elements) is one logical race.
        pair = tuple(sorted(((prior[4], prior[2]), (access[4], access[2]))))
        key = (array.array_id, pair)
        known = self._races.get(key)
        if known is not None:
            known.occurrences += 1
            return
        self._races[key] = RaceReport(
            array=array.name, index=index,
            location=array.element_name(index),
            prior=_site(prior), access=_site(access))


def _site(entry: tuple) -> AccessSite:
    rank, tick, site, time_us, kind = entry
    return AccessSite(rank=rank, kind=kind, site=site, time_us=time_us,
                      tick=tick)
