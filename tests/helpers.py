"""Shared test scaffolding: a bare two-or-more-node AM fabric.

Builds simulator + wire + AM layers directly (below the Cluster/Proc
level) so tests can assert exact LogGP timings of individual messages.
"""

from __future__ import annotations

from typing import List, Optional

from repro.am.layer import AmLayer, DEFAULT_WINDOW, HandlerTable
from repro.am.tuning import TuningKnobs
from repro.instruments.probes import Probes
from repro.network.loggp import LogGPParams
from repro.network.wire import Wire
from repro.sim import Simulator


class _BareHost:
    """Minimal stand-in for Proc as `am.host` (handlers may use state)."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.state = {}


class Fabric:
    """N AM endpoints on one wire, for layer-level tests."""

    def __init__(self, n_nodes: int = 2,
                 params: Optional[LogGPParams] = None,
                 knobs: Optional[TuningKnobs] = None,
                 window: int = DEFAULT_WINDOW,
                 table: Optional[HandlerTable] = None,
                 probes: Optional[Probes] = None) -> None:
        self.params = params or LogGPParams.berkeley_now()
        self.knobs = knobs or TuningKnobs()
        self.sim = Simulator()
        self.wire = Wire(self.sim, self.params.latency, probes=probes)
        self.table = table or HandlerTable()
        self.ams: List[AmLayer] = []
        for node_id in range(n_nodes):
            am = AmLayer(self.sim, node_id, self.params, self.knobs,
                         self.wire, self.table, window=window,
                         probes=probes)
            am.host = _BareHost(node_id)
            self.ams.append(am)

    def run(self, *generators, until=None):
        """Run one process per generator; returns their results in order."""
        procs = [self.sim.process(g) for g in generators]
        done = self.sim.all_of(procs)
        self.sim.run(until=until, stop_event=done)
        return [p.value for p in procs]
