"""Raw communication counters for one run.

What a message moves is counted where it moves: each node's
:class:`~repro.am.layer.AmLayer` counts the messages it sends and
receives, and its NIC its transmit-busy time.  :class:`ClusterStats`
loads its totals into those counters when the measured region starts
and folds them back when the region ends, or when they are read inside
it.  The rarer counters (barriers, collectives, locks, the lossy
fabric's) are updated through the run's hooks
(:mod:`repro.instruments.probes`).

A *message* here is a logical Active Message -- a request, a reply
(explicit or automatic ack), a one-way message, or a whole bulk transfer
-- matching what the paper counts in Table 4 ("messages sent per
processor" includes both halves of each request/response pair).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.network.packet import Packet

__all__ = ["ClusterStats"]


def _live(name: str) -> property:
    """The public array of a per-message counter, kept in the instance
    ``__dict__`` under its own name.  Inside the measured region the
    layers count, and a read there first folds their counts in."""
    def read(self: "ClusterStats") -> np.ndarray:
        if self.enabled:
            self._fold()
        return self.__dict__[name]
    return property(read)


class ClusterStats:
    """Per-node and per-pair communication counters for one run."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = n_nodes
        live = vars(self)  # read through the properties of these names
        #: messages[src, dst] — logical messages sent src→dst.
        live["matrix"] = np.zeros((n_nodes, n_nodes), dtype=np.int64)
        #: Per-node totals by category.
        live["messages_sent"] = np.zeros(n_nodes, dtype=np.int64)
        live["bulk_messages_sent"] = np.zeros(n_nodes, dtype=np.int64)
        live["read_messages_sent"] = np.zeros(n_nodes, dtype=np.int64)
        live["small_bytes_sent"] = np.zeros(n_nodes, dtype=np.int64)
        live["bulk_bytes_sent"] = np.zeros(n_nodes, dtype=np.int64)
        live["messages_received"] = np.zeros(n_nodes, dtype=np.int64)
        #: Barrier crossings per node (set by the GAS layer).
        self.barriers = np.zeros(n_nodes, dtype=np.int64)
        #: Failed lock acquisition attempts per node (Barnes livelock).
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
        live["tx_busy_us"] = np.zeros(n_nodes, dtype=np.float64)
        #: Collective invocations per node, keyed ``"kind/algorithm"``
        #: (e.g. ``"broadcast/binomial"``); arrays created lazily the
        #: first time a (kind, algo) pair is dispatched.
        self.collective_calls: dict = {}
        #: Declared payload bytes per node for the same keys.
        self.collective_bytes: dict = {}
        #: Application start/end in simulated µs (set by the runtime).
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Counters only accumulate inside the measured region, so
        #: untimed setup traffic does not pollute Table 4.
        self.enabled = False
        #: Optional open-system SLO instruments
        #: (:class:`~repro.serve.metrics.ServingMetrics`), attached by
        #: serving apps at setup.  None for every closed BSP run, and
        #: serialized only when present, so legacy runs stay
        #: byte-identical on disk.
        self.serving = None
        self._sim = None  # the run's clock, between begin and finish
        #: The run's AM layers by rank (:meth:`attach`): they count.
        self._layers: Sequence = ()

    def attach(self, layers: Sequence) -> None:
        """Count the messages of ``layers``, the run's
        :class:`~repro.am.layer.AmLayer` s by rank (``Cluster.machine``)."""
        self._layers = tuple(layers)

    # -- measured-region control --------------------------------------------
    def on_begin(self, sim, cluster, app_name: str) -> None:
        self._sim = sim

    def on_finish(self) -> None:
        self._sim = None
        self._layers = ()  # a result travels without its machine

    def on_mark(self, rank: int, label: str) -> None:
        """Rank 0 passed the timed region's ``start`` or ``stop``."""
        if label == "start":
            self.start_measurement(self._sim.now)
        else:
            self.stop_measurement(self._sim.now)

    def start_measurement(self, now: float) -> None:
        """Begin the timed region (called after the entry barrier)."""
        self.started_at = now
        if self.enabled:  # a restart: what the layers hold is kept
            self._fold()
        # The layers count on from the arrays' totals.
        arrays = self.__dict__
        for rank, am in enumerate(self._layers):
            am.sent_to = arrays["matrix"][rank].tolist()
            for name in self._AM_COUNTERS:
                setattr(am, name, int(arrays[name][rank]))
            am.nic.tx_busy_us = float(arrays["tx_busy_us"][rank])
        self.enabled = True

    def stop_measurement(self, now: float) -> None:
        """End the timed region (called after the exit barrier)."""
        self.finished_at = now
        if self.enabled:
            self._fold()
            self.enabled = False

    def _fold(self) -> None:
        """Copy the layers' totals into the arrays.  Totals, not deltas:
        ``tx_busy_us`` is then one chain of IEEE additions, however read."""
        arrays = self.__dict__
        for rank, am in enumerate(self._layers):
            row = am.sent_to
            arrays["matrix"][rank] = row
            arrays["messages_sent"][rank] = sum(row)
            for name in self._AM_COUNTERS:
                arrays[name][rank] = getattr(am, name)
            arrays["tx_busy_us"][rank] = am.nic.tx_busy_us

    # -- hooks called by the communication layer ---------------------------
    def on_barrier(self, node_id: int) -> None:
        """``node_id`` completed a barrier."""
        if not self.enabled:
            return
        self.barriers[node_id] += 1

    def on_failed_lock(self, node_id: int) -> None:
        """``node_id`` had a lock acquisition denied (retry follows)."""
        self.failed_lock_attempts[node_id] += 1

    def on_packet_dropped(self, node_id: int, packet: Packet) -> None:
        """The fault injector dropped a packet sent by ``node_id``."""
        if not self.enabled:
            return
        self.packets_dropped[node_id] += 1

    def on_retransmit(self, node_id: int, packet: Packet) -> None:
        """``node_id``'s NIC retransmitted an unacked packet."""
        if not self.enabled:
            return
        self.retransmissions[node_id] += 1

    def on_duplicate(self, node_id: int, packet: Packet) -> None:
        """``node_id``'s NIC suppressed a duplicate sequence number."""
        if not self.enabled:
            return
        self.duplicates_suppressed[node_id] += 1

    def on_collective(self, kind: str, algo: str, rank: int,
                      nbytes: int) -> None:
        """Rank ``rank`` dispatched one ``kind`` collective scheduled as
        ``algo``, declaring ``nbytes`` payload bytes.

        Called once per rank per invocation by
        ``repro.coll.algorithms.pick`` (when the ``Proc`` method is
        called), so runs are auditable from stats alone: the keys say
        exactly which schedules ran, and how often.
        """
        if not self.enabled:
            return
        key = f"{kind}/{algo}"
        calls = self.collective_calls.get(key)
        if calls is None:
            calls = self.collective_calls.setdefault(
                key, np.zeros(self.n_nodes, dtype=np.int64))
            self.collective_bytes.setdefault(
                key, np.zeros(self.n_nodes, dtype=np.int64))
        calls[rank] += 1
        self.collective_bytes[key][rank] += nbytes

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
    #: The counters a message moves, ``matrix`` to ``messages_received``
    #: and ``tx_busy_us`` (see ``_live``, installed below the class).
    _LIVE_FIELDS = _ARRAY_FIELDS[:7] + _FLOAT_ARRAY_FIELDS
    #: The ones an AM layer keeps under the array's own name; it keeps
    #: ``matrix`` as its row ``sent_to``, whose sum is ``messages_sent``,
    #: and its NIC ``tx_busy_us``.
    _AM_COUNTERS = _ARRAY_FIELDS[2:7]

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
        arrays = vars(stats)
        for name in cls._ARRAY_FIELDS + cls._FLOAT_ARRAY_FIELDS:
            zeros = arrays[name]
            array = np.array(data[name], dtype=zeros.dtype)
            if array.shape != zeros.shape:
                # Copying into ``zeros`` would broadcast it: a truncated
                # entry must read as corrupt (a cache miss), not a result.
                raise ValueError(
                    f"{name}: shape {array.shape}, expected {zeros.shape}")
            arrays[name] = array
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


for _name in ClusterStats._LIVE_FIELDS:
    setattr(ClusterStats, _name, _live(_name))
