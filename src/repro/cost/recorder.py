"""Observation-only recording of a run's dependency DAG.

A :class:`DepRecorder` is passed to :meth:`Cluster.run(app,
recorder=...) <repro.cluster.machine.Cluster.run>`, which subscribes it
to the run's :class:`~repro.instruments.probes.Probes`: ``send`` and
``recv`` at every host-level send and reception, ``blocked`` after
every parked wait, ``mark`` at the two ends of the measured region,
``begin`` and ``finish`` around the run.  The hooks only *read*
simulator state (``sim.now``, packet fields) and append to Python
lists — they schedule nothing, charge nothing, and touch no
randomness, so an instrumented run is bit-identical to an unrecorded
one (same ``runtime_us``, ``events_processed``, stats, and RunCache
keys).  This is the same contract simsan established, and it is
pinned by tests and CI.

Recording is supported on a perfectly reliable wire with undialed
occupancy; other regimes (fault plans with their retransmission
timers, a serialised receive context, open-system apps) have
scheduling dynamics the replay model does not reproduce, so
``Cluster.run`` refuses them up front rather than returning graphs
that mispredict.

A recording is a run like any other: :func:`recording` plans it as one
:class:`~repro.harness.parallel.PointTask` that asks for its graph, so
a driver drains it beside its sweeps (the recording *is* the sweep's
baseline point, simulated once and cached with its graph), and
:func:`record_run` is that plan drained on its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.am.tuning import DialedCost
from repro.cluster.machine import Cluster
from repro.cost.graph import (BULK, LABELS, MARK, ONE_WAY, RECV, REPLY_LIKE,
                              ROW, SEND, TAKES_CREDIT, CostGraph)
from repro.harness.parallel import Plan, PointTask, run_points
from repro.network.packet import REPLY, Packet

__all__ = ["DepRecorder", "recording", "record_run"]

#: Row tuples a recorder holds before it packs them into an array: a
#: tuple row costs ~200 bytes, a packed one 55.
CHUNK_ROWS = 4096


class DepRecorder:
    """Collects the graph's rows during one instrumented run.

    One recorder serves exactly one run: the ``begin`` hook arms it and
    ``finish`` seals it.  The finished graph is available as
    :attr:`graph`.
    """

    def __init__(self) -> None:
        #: One tuple per event since the last pack, in the field order of
        #: ``graph.ROW``; packed every ``CHUNK_ROWS`` and at the finish.
        self.rows: List[tuple] = []
        self._packed: List[np.ndarray] = []
        #: Per-rank blocked time accumulated since the previous recorded
        #: event on that rank (consumed by the next event).
        self._blocked: Dict[int, float] = {}
        self.graph: Optional[CostGraph] = None
        # Filled by on_begin; the simulator doubles as the armed flag.
        self._sim = None
        self._cluster = None
        self._app_name = ""
        #: What the AM layer charges per message (the run's DialedCost).
        self._send_cost = 0.0
        self._recv_cost = 0.0
        self._marks: Dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------
    def on_begin(self, sim, cluster, app_name: str) -> None:
        if self._sim is not None or self.graph is not None:
            raise RuntimeError(
                "a DepRecorder records exactly one run; make a new one")
        self._sim = sim
        self._cluster = cluster
        self._app_name = app_name
        charge = DialedCost(cluster.params, cluster.knobs)
        self._send_cost = charge.send_charge
        self._recv_cost = charge.recv_charge

    def on_finish(self) -> None:
        """Seal :attr:`graph`; its runtime is the marked region's."""
        if self._sim is None:
            raise RuntimeError("finish before begin")
        cluster = self._cluster
        self._sim = self._cluster = None
        self._pack()
        rows = np.concatenate(self._packed)
        rows.setflags(write=False)  # the graph's own: shared, not copied
        self._packed = []
        self.graph = CostGraph(
            app_name=self._app_name, n_nodes=cluster.n_nodes,
            params=cluster.params, knobs=cluster.knobs,
            window=cluster.window, window_scope=cluster.window_scope,
            seed=cluster.seed,
            runtime_us=self._marks["stop"] - self._marks["start"],
            rows=rows)

    def _pack(self) -> None:
        self._packed.append(np.array(self.rows, dtype=ROW))
        self.rows = []

    # -- hooks -------------------------------------------------------------
    def on_send(self, rank: int, packet: Packet) -> None:
        """Completion of one host-level send (after its ``o`` charge)."""
        bulk = packet.is_bulk
        # Replies never take a window credit, everything else does; a
        # bulk send stands for the whole transfer.
        self.rows.append((
            SEND, rank, self._sim.now, self._send_cost,
            self._blocked.pop(rank, 0.0), packet.xfer_id, packet.dst,
            (REPLY_LIKE if packet.kind is REPLY or packet.is_reply
             else TAKES_CREDIT)
            | (ONE_WAY if packet.one_way else 0) | (BULK if bulk else 0),
            packet.logical_bytes if bulk else packet.size_bytes,
            packet.fragment[1] if bulk else 1, 0))
        if len(self.rows) >= CHUNK_ROWS:
            self._pack()

    def on_recv(self, rank: int, packet: Packet) -> None:
        """Completion of one host-level reception (after its charge)."""
        self.rows.append((
            RECV, rank, self._sim.now, self._recv_cost,
            self._blocked.pop(rank, 0.0), packet.xfer_id, packet.src,
            REPLY_LIKE if packet.kind is REPLY or packet.is_reply else 0,
            0, 1, 0))
        if len(self.rows) >= CHUNK_ROWS:
            self._pack()

    def on_blocked(self, rank: int, duration: float) -> None:
        """The rank was parked in ``wait_until`` for ``duration`` µs."""
        if duration > 0:
            self._blocked[rank] = self._blocked.get(rank, 0.0) + duration

    def on_mark(self, rank: int, label: str) -> None:
        """Measurement-region marker (``start`` / ``stop`` on rank 0)."""
        now = self._marks[label] = self._sim.now
        self.rows.append((MARK, rank, now, 0.0, self._blocked.pop(rank, 0.0),
                          -1, -1, 0, 0, 1, LABELS[label]))


def recording(app, n_nodes: int, **cluster) -> Plan:
    """The plan of one recorded run of ``app``: builds ``(graph,
    result)``.

    ``cluster`` is any other :class:`~repro.cluster.machine.Cluster`
    field.  A run that does not complete raises ``RuntimeError``
    carrying its taxonomy string, as :meth:`Plan.of_results` does.
    """
    task = PointTask(app, Cluster(n_nodes, **cluster), record=True)
    results = Plan.of_results([task]).build

    def build(points):
        result, = results(points)
        return points[0].graph, result
    return Plan((task,), build)


def record_run(app, n_nodes: int, **cluster):
    """Run ``app`` once with recording on; return ``(graph, result)``.

    The single instrumented simulation that replaces a dial sweep:
    :func:`recording`'s plan, drained on its own (uncached).  The run
    itself is bit-identical to an unrecorded run of the same
    configuration.
    """
    plan = recording(app, n_nodes, **cluster)
    return plan.build(run_points(plan.tasks))
