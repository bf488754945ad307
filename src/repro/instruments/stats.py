"""Raw communication counters for one run.

Each counter is kept once, by the component where its event happens:
the AM layers, NICs, wire and ranks (ARCHITECTURE.md section 3).
:class:`ClusterStats` resets them when the measured region starts and
copies them in when it ends; it subscribes to no hook of
:mod:`repro.instruments.probes`.

A *message* here is a logical Active Message -- a request, a reply
(explicit or automatic ack), a one-way message, or a whole bulk transfer
-- matching what the paper counts in Table 4 ("messages sent per
processor" includes both halves of each request/response pair).
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["ClusterStats"]


class ClusterStats:
    """Per-node and per-pair communication counters for one run.

    A plain record that subscribes to nothing.  ``Cluster.machine``
    attaches the run's ranks and wire (:meth:`attach`), and rank 0's
    driver calls :meth:`start_measurement` and :meth:`stop_measurement`
    around the timed region: the start resets every counter the region
    keeps, the stop copies them in and drops the machine.  The one
    counter that is not the region's is ``failed_lock_attempts``: it
    counts the whole run, ``setup_rank`` included.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = n_nodes
        #: messages[src, dst] — logical messages sent src→dst.
        self.matrix = np.zeros((n_nodes, n_nodes), dtype=np.int64)
        #: Per-node totals by category.
        self.messages_sent = np.zeros(n_nodes, dtype=np.int64)
        self.bulk_messages_sent = np.zeros(n_nodes, dtype=np.int64)
        self.read_messages_sent = np.zeros(n_nodes, dtype=np.int64)
        self.small_bytes_sent = np.zeros(n_nodes, dtype=np.int64)
        self.bulk_bytes_sent = np.zeros(n_nodes, dtype=np.int64)
        self.messages_received = np.zeros(n_nodes, dtype=np.int64)
        #: Barrier crossings per node.
        self.barriers = np.zeros(n_nodes, dtype=np.int64)
        #: Denied lock attempts per node, whole run (Barnes livelock).
        self.failed_lock_attempts = np.zeros(n_nodes, dtype=np.int64)
        #: Packets dropped by the fault injector, charged to the sender.
        self.packets_dropped = np.zeros(n_nodes, dtype=np.int64)
        #: Reliability-protocol retransmissions per sending node.
        self.retransmissions = np.zeros(n_nodes, dtype=np.int64)
        #: Duplicate packets suppressed per receiving node.
        self.duplicates_suppressed = np.zeros(n_nodes, dtype=np.int64)
        #: Bulk transfers still unreassembled at teardown (the leak
        #: diagnostic; set once per run, not gated on the timed region).
        self.reassembly_leaks = np.zeros(n_nodes, dtype=np.int64)
        #: Simulated µs each node's NIC transmit context was busy.
        self.tx_busy_us = np.zeros(n_nodes, dtype=np.float64)
        #: Collective invocations per node, keyed ``"kind/algorithm"``
        #: (e.g. ``"broadcast/binomial"``), in sorted key order: only the
        #: pairs dispatched inside the region have a key.
        self.collective_calls: dict = {}
        #: Declared payload bytes per node for the same keys.
        self.collective_bytes: dict = {}
        #: Application start/end in simulated µs (set by the runtime).
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Optional open-system SLO instruments
        #: (:class:`~repro.serve.metrics.ServingMetrics`), attached by
        #: serving apps at setup.  None for every closed BSP run, and
        #: serialized only when present, so legacy runs stay
        #: byte-identical on disk.
        self.serving = None
        #: The run's ranks and its wire's drops (:meth:`attach`).
        self._ranks: Sequence = ()
        self._dropped: dict = {}

    def attach(self, ranks: Sequence, wire) -> None:
        """Read the counters of ``ranks``, the run's ``Proc`` s by rank
        (with their AM layers and NICs), and of its ``wire``."""
        self._ranks = tuple(ranks)
        self._dropped = wire.packets_dropped

    # -- measured-region control --------------------------------------------
    def start_measurement(self, now: float) -> None:
        """Begin the timed region (rank 0, after the entry barrier):
        every counter the region keeps starts again from zero."""
        self.started_at = now
        for proc in self._ranks:
            am = proc.am
            am.sent_to = [0] * self.n_nodes
            am.bulk_messages_sent = am.read_messages_sent = 0
            am.small_bytes_sent = am.bulk_bytes_sent = 0
            am.messages_received = 0
            nic = am.nic
            nic.tx_busy_us = 0.0
            nic.retransmissions = nic.duplicates_suppressed = 0
            proc.barriers = 0
            proc.collective_calls = defaultdict(int)
            proc.collective_bytes = defaultdict(int)
        self._dropped.clear()

    def stop_measurement(self, now: float) -> None:
        """End the timed region (rank 0, after the exit barrier): copy
        the counters in and let go of the machine, so a result travels
        without it."""
        self.finished_at = now
        ranks = self._ranks
        for rank, proc in enumerate(ranks):
            self.matrix[rank] = proc.am.sent_to
            self.messages_sent[rank] = sum(proc.am.sent_to)
        counts = [self._counters_of(proc) for proc in ranks]
        for name, column in zip(self._COPIED, zip(*counts)):
            getattr(self, name)[:] = column
        for key in sorted({key for proc in ranks
                           for key in proc.collective_calls}):
            self.collective_calls[key] = np.array(
                [proc.collective_calls.get(key, 0) for proc in ranks],
                dtype=np.int64)
            self.collective_bytes[key] = np.array(
                [proc.collective_bytes.get(key, 0) for proc in ranks],
                dtype=np.int64)
        for src, count in self._dropped.items():
            self.packets_dropped[src] = count
        self._ranks, self._dropped = (), {}

    @property
    def total_collectives(self) -> int:
        """Collective invocations dispatched, summed over all nodes and
        kinds (each invocation counted once per participating rank)."""
        return int(sum(int(arr.sum())
                       for arr in self.collective_calls.values()))

    def record_reassembly_leaks(self, node_id: int, count: int) -> None:
        """Teardown diagnostic: bulk transfers that never completed."""
        self.reassembly_leaks[node_id] = count

    # -- aggregates ---------------------------------------------------------
    @property
    def runtime_us(self) -> float:
        """Wall-clock of the measured region in simulated microseconds."""
        if self.started_at is None or self.finished_at is None:
            raise RuntimeError("run has not completed")
        return self.finished_at - self.started_at

    @property
    def total_messages(self) -> int:
        """All logical messages sent by all nodes."""
        return int(self.messages_sent.sum())

    @property
    def avg_messages_per_node(self) -> float:
        return float(self.messages_sent.mean())

    @property
    def max_messages_per_node(self) -> int:
        return int(self.messages_sent.max())

    @property
    def communication_balance(self) -> float:
        """Max over average messages per node (1.0 = perfectly balanced)."""
        avg = self.avg_messages_per_node
        if avg == 0:
            return 1.0
        return self.max_messages_per_node / avg

    @property
    def total_packets_dropped(self) -> int:
        """Packets removed by the fault injector, all nodes."""
        return int(self.packets_dropped.sum())

    @property
    def total_retransmissions(self) -> int:
        """Reliability-protocol retransmissions, all nodes."""
        return int(self.retransmissions.sum())

    @property
    def total_duplicates_suppressed(self) -> int:
        """Duplicate packets suppressed, all nodes."""
        return int(self.duplicates_suppressed.sum())

    @property
    def total_reassembly_leaks(self) -> int:
        """Bulk transfers still unreassembled at teardown, all nodes."""
        return int(self.reassembly_leaks.sum())

    @property
    def transmit_busy_fraction(self) -> np.ndarray:
        """Per-node fraction of the measured region the NIC transmit
        context spent busy (DMA + injection stalls)."""
        return self.tx_busy_us / self.runtime_us

    # -- serialisation (the on-disk run cache) -------------------------------
    _ARRAY_FIELDS = ("matrix", "messages_sent", "bulk_messages_sent",
                     "read_messages_sent", "small_bytes_sent",
                     "bulk_bytes_sent", "messages_received", "barriers",
                     "failed_lock_attempts", "packets_dropped",
                     "retransmissions", "duplicates_suppressed",
                     "reassembly_leaks")
    _FLOAT_ARRAY_FIELDS = ("tx_busy_us",)
    #: The counters each component keeps under the array's own name.
    #: An AM layer also keeps ``matrix`` as its row ``sent_to``, whose
    #: sum is ``messages_sent``; ``Proc.failed_lock_attempts`` is never
    #: reset, and the wire keeps ``packets_dropped`` by sender.
    _AM_COUNTERS = _ARRAY_FIELDS[2:7]
    _NIC_COUNTERS = ("tx_busy_us", "retransmissions",
                     "duplicates_suppressed")
    _PROC_COUNTERS = ("barriers", "failed_lock_attempts")
    _COPIED = _AM_COUNTERS + _NIC_COUNTERS + _PROC_COUNTERS
    #: A rank's counters, in ``_COPIED`` order.
    _counters_of = attrgetter(*("am." + name for name in _AM_COUNTERS),
                              *("am.nic." + name for name in _NIC_COUNTERS),
                              *_PROC_COUNTERS)

    def to_dict(self) -> dict:
        """JSON-safe dict capturing every counter (arrays as lists)."""
        data = {name: getattr(self, name).tolist()
                for name in self._ARRAY_FIELDS + self._FLOAT_ARRAY_FIELDS}
        data["n_nodes"] = self.n_nodes
        data["started_at"] = self.started_at
        data["finished_at"] = self.finished_at
        data["collective_calls"] = {
            key: arr.tolist()
            for key, arr in sorted(self.collective_calls.items())}
        data["collective_bytes"] = {
            key: arr.tolist()
            for key, arr in sorted(self.collective_bytes.items())}
        # Key present only for serving runs: closed-run serializations
        # (and their pinned cache payload hashes) stay byte-identical.
        if self.serving is not None:
            data["serving"] = self.serving.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterStats":
        """Rebuild a stats object produced by :meth:`to_dict`."""
        stats = cls(data["n_nodes"])
        for name in cls._ARRAY_FIELDS + cls._FLOAT_ARRAY_FIELDS:
            zeros = getattr(stats, name)
            array = np.array(data[name], dtype=zeros.dtype)
            if array.shape != zeros.shape:
                # Copying into ``zeros`` would broadcast it: a truncated
                # entry must read as corrupt (a cache miss), not a result.
                raise ValueError(
                    f"{name}: shape {array.shape}, expected {zeros.shape}")
            setattr(stats, name, array)
        stats.started_at = data["started_at"]
        stats.finished_at = data["finished_at"]
        for field_name in ("collective_calls", "collective_bytes"):
            restored = {
                key: np.asarray(values, dtype=np.int64)
                for key, values in data.get(field_name, {}).items()}
            setattr(stats, field_name, restored)
        if data.get("serving") is not None:
            from repro.serve.metrics import ServingMetrics
            stats.serving = ServingMetrics.from_dict(data["serving"])
        return stats

    def per_node_rows(self) -> List[dict]:
        """One diagnostic dict per node."""
        return [
            {
                "node": node,
                "messages_sent": int(self.messages_sent[node]),
                "bulk_messages": int(self.bulk_messages_sent[node]),
                "reads": int(self.read_messages_sent[node]),
                "small_bytes": int(self.small_bytes_sent[node]),
                "bulk_bytes": int(self.bulk_bytes_sent[node]),
                "barriers": int(self.barriers[node]),
                "dropped": int(self.packets_dropped[node]),
                "retransmits": int(self.retransmissions[node]),
                "collectives": int(sum(
                    int(arr[node])
                    for arr in self.collective_calls.values())),
            }
            for node in range(self.n_nodes)
        ]
