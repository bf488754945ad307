"""Differential equivalence: the counters the layers keep vs. the hooks
``ClusterStats`` used to subscribe.

Each counter is kept once, where its event happens: each node's
``AmLayer`` counts what it sends and receives, its NIC its
transmit-busy µs, retransmissions and suppressed duplicates, the wire
its drops by sender, and each ``Proc`` its barriers, collectives and
denied locks.  ``ClusterStats`` resets them when the measured region
starts and copies them in when it ends.  The deleted hook bodies live on
here, as :class:`NumpyStats`, a standalone subscriber on ``mark``,
``send``, ``recv``, ``inject`` (the instant the ``tx_busy`` hook fired
at) and the six rarer hooks, whose numpy arrays are the counters: the
reference the components' counts may only be *cheaper* than, in the role
``LegacyNic`` plays for the NIC (``test_nic_tx_equivalence.py``).  Over
real ``Cluster`` runs -- short, bulk, read and one-way traffic, Barnes,
a lossy wire, a serving point, dialed transmit cycles -- both must give
identical ``to_dict()`` (so identical JSON bytes), identical dtype and
shape of every public array, and ``tx_busy_us`` equal bit for bit: the
same IEEE additions in the same order.
"""

import json

import numpy as np
import pytest

from repro.am.tuning import DialedCost, TuningKnobs
from repro.apps import NowSort, RadixSort, default_suite
from repro.cluster.machine import Cluster
from repro.instruments import ClusterStats
from repro.network.faults import FaultPlan
from repro.network.packet import BULK_FRAGMENT
from repro.serve import KVServe

ARRAYS = ClusterStats._ARRAY_FIELDS + ClusterStats._FLOAT_ARRAY_FIELDS


class NumpyStats:
    """``ClusterStats`` as it was: the arrays are the counters, and the
    run's hooks move them, inside the region marked by ``mark`` (the
    denied locks over the whole run)."""

    def __init__(self, n_nodes):
        self.n_nodes = n_nodes
        for name in ARRAYS:
            shape = (n_nodes, n_nodes) if name == "matrix" else n_nodes
            dtype = np.float64 if name == "tx_busy_us" else np.int64
            setattr(self, name, np.zeros(shape, dtype=dtype))
        self.collective_calls = {}
        self.collective_bytes = {}
        self.started_at = self.finished_at = None
        self.enabled = False

    def on_begin(self, sim, cluster, app_name):
        self.sim = sim
        self.cost = DialedCost(cluster.params, cluster.knobs)

    def on_mark(self, rank, label):
        if label == "start":
            self.started_at = self.sim.now
        else:
            self.finished_at = self.sim.now
        self.enabled = label == "start"

    def on_send(self, node_id, packet):
        if not self.enabled:
            return
        self.messages_sent[node_id] += 1
        self.matrix[node_id, packet.dst] += 1
        if packet.is_bulk:
            self.bulk_messages_sent[node_id] += 1
            self.bulk_bytes_sent[node_id] += packet.logical_bytes
        else:
            self.small_bytes_sent[node_id] += packet.logical_bytes
        if packet.is_read:
            self.read_messages_sent[node_id] += 1

    def on_recv(self, node_id, packet):
        if not self.enabled:
            return
        self.messages_received[node_id] += 1

    def on_inject(self, node_id, packet):
        """The old ``on_tx_busy``, fed the cycle the NIC serves."""
        if not self.enabled:
            return
        pre, stall = self.cost.tx_cycle(packet.size_bytes,
                                        packet.kind is BULK_FRAGMENT)
        self.tx_busy_us[node_id] += pre + stall

    def on_barrier(self, node_id):
        if not self.enabled:
            return
        self.barriers[node_id] += 1

    def on_failed_lock(self, node_id):
        self.failed_lock_attempts[node_id] += 1

    def on_packet_dropped(self, node_id, packet):
        if not self.enabled:
            return
        self.packets_dropped[node_id] += 1

    def on_retransmit(self, node_id, packet):
        if not self.enabled:
            return
        self.retransmissions[node_id] += 1

    def on_duplicate(self, node_id, packet):
        if not self.enabled:
            return
        self.duplicates_suppressed[node_id] += 1

    def on_collective(self, kind, algo, rank, nbytes):
        if not self.enabled:
            return
        key = f"{kind}/{algo}"
        for counts, amount in ((self.collective_calls, 1),
                               (self.collective_bytes, nbytes)):
            counts.setdefault(key, np.zeros(self.n_nodes, dtype=np.int64))
            counts[key][rank] += amount

    def as_stats(self, result):
        """A ``ClusterStats`` holding these arrays, and what only
        ``Cluster.run`` hands the run's own stats (leaks, serving)."""
        stats = ClusterStats(self.n_nodes)
        for name in ARRAYS:
            setattr(stats, name, getattr(self, name))
        stats.reassembly_leaks = result.stats.reassembly_leaks
        stats.serving = result.stats.serving
        stats.collective_calls = self.collective_calls
        stats.collective_bytes = self.collective_bytes
        stats.started_at, stats.finished_at = \
            self.started_at, self.finished_at
        return stats


def _runs():
    suite = {app.name: app for app in default_suite(0.05)}
    lossy = FaultPlan(drop_rate=0.05, retx_timeout_us=60.0)
    dialed = TuningKnobs(delta_G=0.0263, delta_g=3.1, delta_o=1.7)
    return [
        ("short", Cluster(8, seed=13), RadixSort(keys_per_proc=64)),
        ("bulk", Cluster(8, seed=13, knobs=dialed), suite["Radb"]),
        ("read", Cluster(8, seed=13), suite["EM3D(read)"]),
        ("bulk-read", Cluster(8, seed=13, knobs=dialed), suite["Barnes"]),
        ("one-way", Cluster(8, seed=13, knobs=dialed), NowSort.scaled(0.05)),
        ("lossy", Cluster(4, seed=3, faults=lossy),
         RadixSort(keys_per_proc=64)),
        ("serving", Cluster(8, seed=13), KVServe(
            offered_rps=200_000.0, n_users=10_000, duration_us=10_000.0,
            max_requests=300, service_us=4.0, key_space=512)),
    ]


def _assert_same(new, old):
    fresh, reference = new.to_dict(), old.to_dict()
    assert fresh == reference
    assert json.dumps(fresh) == json.dumps(reference)
    for name in ARRAYS:
        ours, theirs = getattr(new, name), getattr(old, name)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("label, cluster, app", _runs(),
                         ids=[run[0] for run in _runs()])
def test_layer_counters_match_the_per_message_hooks(label, cluster, app):
    reference = NumpyStats(cluster.n_nodes)
    result = cluster.run(app, tracer=reference)
    stats = result.stats
    assert stats.total_messages > 0
    assert stats.tx_busy_us.any()
    assert stats.barriers.all()
    _assert_same(stats, reference.as_stats(result))
    restored = ClusterStats.from_dict(stats.to_dict())
    _assert_same(restored, reference.as_stats(result))
    if label == "lossy":
        assert stats.total_packets_dropped > 0
        assert stats.total_retransmissions > 0
        assert stats.total_duplicates_suppressed > 0
    if label == "bulk-read":
        assert stats.failed_lock_attempts.sum() > 0
    if label == "one-way":
        assert stats.bulk_messages_sent.sum() > 0
