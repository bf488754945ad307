"""Structured findings produced by the simsan sanitizer.

Three report shapes exist:

* :class:`RaceReport` -- two accesses to the same :class:`~repro.gas.
  memory.GlobalArray` element that are unordered by happens-before,
  with both access sites, ranks, simulated timestamps and vector-clock
  ticks.
* :class:`DeadlockReport` -- a cycle in the wait-for graph (each edge a
  :class:`WaitEdge`), or the stuck frontier when the event heap drained
  without a cycle.
* :class:`SanitizerReport` -- the per-run aggregate attached to
  :class:`~repro.cluster.machine.RunResult` when ``sanitize=True``.

:class:`DeadlockError` subclasses :class:`TimeoutError` deliberately:
every pre-existing caller that treated a never-completing run as "ended
before done" keeps working, while the harness taxonomy can distinguish
``deadlock:`` from ``budget exceeded:`` by catching the subclass first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["AccessSite", "RaceReport", "WaitEdge", "DeadlockReport",
           "DeadlockError", "SanitizerReport", "BLIND_SPOTS"]

#: What shadow memory does not see (see :mod:`repro.sanitize.shadow`),
#: named in every report: a clean report says nothing about a race
#: through these.
BLIND_SPOTS = ("numpy access through proc.local() is not tracked",)


@dataclass(frozen=True)
class AccessSite:
    """One shared-memory access: who, what kind, where in the source."""

    rank: int
    #: Access class: ``put``/``bulk_put`` (stores), ``add``/``min``
    #: (atomic accumulates), ``read``/``bulk_get`` (loads).
    kind: str
    #: ``file.py:line`` of the issuing application frame.
    site: str
    #: Simulated time the access was issued, microseconds.
    time_us: float
    #: The issuing rank's own vector-clock component at issue time.
    tick: int

    def render(self) -> str:
        return (f"{self.kind} by rank {self.rank} at {self.site} "
                f"(t={self.time_us:.1f})")

    def to_dict(self) -> dict:
        return {"rank": self.rank, "kind": self.kind, "site": self.site,
                "time_us": self.time_us, "tick": self.tick}


@dataclass
class RaceReport:
    """Two happens-before-unordered conflicting accesses to one element.

    Reports are deduplicated by (array, site pair): ``occurrences``
    counts how many element/ordering instances collapsed into this one
    report; ``location`` pins the first element it was seen on.
    """

    array: str
    index: int
    location: str
    prior: AccessSite
    access: AccessSite
    occurrences: int = 1

    def render(self) -> str:
        text = (f"race on {self.location}: {self.prior.render()} is "
                f"unordered with {self.access.render()}")
        if self.occurrences > 1:
            text += f" [x{self.occurrences}]"
        return text

    def to_dict(self) -> dict:
        return {"array": self.array, "index": self.index,
                "location": self.location,
                "prior": self.prior.to_dict(),
                "access": self.access.to_dict(),
                "occurrences": self.occurrences}


@dataclass(frozen=True)
class WaitEdge:
    """One rank blocked on other rank(s) for a stated reason."""

    rank: int
    #: ``lock`` | ``reply`` | ``credit`` | ``barrier`` | ``collective``
    #: | ``sync`` | ``drain`` | ``unknown``
    kind: str
    #: The peer rank(s) that must act for this rank to make progress
    #: (empty when unknown).
    on: Tuple[int, ...]
    detail: str

    def render(self) -> str:
        peers = ",".join(str(peer) for peer in self.on)
        target = f"rank(s) {peers}" if peers else "unknown peers"
        return f"rank {self.rank} waits on {target} [{self.kind}: " \
               f"{self.detail}]"

    def to_dict(self) -> dict:
        return {"rank": self.rank, "kind": self.kind,
                "on": list(self.on), "detail": self.detail}


@dataclass
class DeadlockReport:
    """A wait-for cycle, or the stuck frontier when no cycle exists."""

    #: ``cycle`` (edges form a loop) or ``frontier`` (blocked ranks with
    #: no cycle among them -- e.g. waiting on a rank that exited).
    kind: str
    edges: Tuple[WaitEdge, ...]
    time_us: float = 0.0

    @property
    def ranks(self) -> Tuple[int, ...]:
        """The blocked ranks involved, ascending."""
        return tuple(sorted({edge.rank for edge in self.edges}))

    def describe(self) -> str:
        chain = "; ".join(edge.render() for edge in self.edges)
        if self.kind == "cycle":
            return (f"wait-for cycle among ranks {list(self.ranks)} "
                    f"at t={self.time_us:.1f}: {chain}")
        return (f"stuck frontier at t={self.time_us:.1f} (no runnable "
                f"events, no wait-for cycle): {chain}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "time_us": self.time_us,
                "ranks": list(self.ranks),
                "edges": [edge.to_dict() for edge in self.edges]}


class DeadlockError(TimeoutError):
    """The run can never complete; carries the :class:`DeadlockReport`.

    Subclasses :class:`TimeoutError` so callers that only distinguish
    "completed" from "did not complete" keep working unchanged; the
    harness catches this subclass first to label points ``deadlock:``.
    """

    def __init__(self, report: DeadlockReport) -> None:
        super().__init__(report.describe())
        self.report = report


@dataclass
class SanitizerReport:
    """Per-run aggregate of everything simsan observed.

    This (not the live :class:`~repro.sanitize.monitor.Sanitizer`) is
    what :class:`~repro.cluster.machine.RunResult` carries, so results
    stay picklable across the harness's process pool.  It is *not*
    serialised into the run cache -- sanitized runs bypass the cache.
    """

    n_nodes: int
    races: Tuple[RaceReport, ...] = ()
    accesses_checked: int = 0
    messages_clocked: int = 0
    shadow_cells: int = 0

    @property
    def clean(self) -> bool:
        return not self.races

    def render(self) -> str:
        lines: List[str] = [race.render() for race in self.races]
        lines.append(
            f"simsan: {len(self.races)} race(s); "
            f"{self.accesses_checked} access(es) checked, "
            f"{self.messages_clocked} message(s) clocked, "
            f"{self.shadow_cells} shadow cell(s)")
        lines.extend(f"simsan: blind spot: {spot}" for spot in BLIND_SPOTS)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {"n_nodes": self.n_nodes,
                "races": [race.to_dict() for race in self.races],
                "accesses_checked": self.accesses_checked,
                "messages_clocked": self.messages_clocked,
                "shadow_cells": self.shadow_cells,
                "blind_spots": list(BLIND_SPOTS)}
