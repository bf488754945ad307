"""The one microbenchmark that runs as an application.

:class:`BurstSender` -- every rank fires a fixed-rate or maximal-rate
burst at its ring neighbour, or round-robin at every peer (the Figure 3
pattern, cluster-wide) -- goes through the full Cluster runner, so the
window-scope and burst ablations of :mod:`repro.harness.extensions`
read its statistics like any real program's.  The round-trip and bulk
probes are :mod:`repro.calibrate`'s, which drive two bare nodes.
"""

from __future__ import annotations

from typing import Generator, List

from repro.am.layer import HandlerTable
from repro.apps.base import Application
from repro.gas.runtime import Proc

__all__ = ["BurstSender"]


def _sink(am, packet):
    am.host.state.setdefault("mb_received", 0)
    am.host.state["mb_received"] += 1
    return None


class BurstSender(Application):
    """Every rank sends ``n_messages`` to its ring neighbour, either at
    a fixed pacing interval or flat out (the burst/uniform dichotomy of
    Section 5.2).  With ``all_peers`` the messages go round-robin to
    every other rank instead, the all-to-all pattern of the sorts'
    distribution phases.  ``finalize`` returns the mean initiation
    interval."""

    name = "BurstSender"

    def __init__(self, n_messages: int = 64, interval_us: float = 0.0,
                 all_peers: bool = False):
        if n_messages < 1:
            raise ValueError("n_messages must be >= 1")
        if interval_us < 0:
            raise ValueError("interval_us must be >= 0")
        self.n_messages = n_messages
        self.interval_us = interval_us
        self.all_peers = all_peers

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("mb_sink", _sink)

    def run_rank(self, proc: Proc) -> Generator:
        if proc.n_ranks < 2:
            return
        peers = ([(proc.rank + k) % proc.n_ranks
                  for k in range(1, proc.n_ranks)]
                 if self.all_peers else [(proc.rank + 1) % proc.n_ranks])
        start = proc.sim.now
        for i in range(self.n_messages):
            if self.interval_us:
                yield from proc.compute(self.interval_us)
            yield from proc.poll()
            yield from proc.am.send_request(peers[i % len(peers)],
                                            "mb_sink", i)
        proc.state["interval_us"] = \
            (proc.sim.now - start) / self.n_messages
        yield from proc.am.drain()

    def finalize(self, procs: List[Proc]) -> float:
        intervals = [p.state.get("interval_us", 0.0) for p in procs]
        return sum(intervals) / len(intervals)
