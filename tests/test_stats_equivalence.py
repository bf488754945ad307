"""Differential equivalence: the message counters the AM layers and NICs
keep vs. the per-message hooks ``ClusterStats`` used to subscribe.

Each node's ``AmLayer`` counts what it sends and receives, and its NIC
adds up its transmit-busy µs; ``ClusterStats`` loads its totals into
them when the measured region starts and folds them back at its end or
on a read inside it.  The deleted hook bodies live on here, as
:class:`NumpyStats`, a subscriber on ``send``, ``recv`` and ``inject``
(the instant the ``tx_busy`` hook fired at) whose numpy arrays are the
counters: the reference the layers' counts may only be *cheaper* than,
in the role ``LegacyNic`` plays for the NIC
(``test_nic_tx_equivalence.py``).  Over real ``Cluster`` runs -- short,
bulk, read and one-way traffic, a lossy wire, a serving point, dialed
transmit cycles, and an application that stops, restarts and reads the
region itself -- both must give identical ``to_dict()`` (so identical
JSON bytes), identical dtype and shape of every public array, and
``tx_busy_us`` equal bit for bit: the same IEEE additions in the same
order.
"""

import json

import pytest

from repro.am.tuning import DialedCost, TuningKnobs
from repro.apps import NowSort, RadixSort, default_suite
from repro.apps.base import Application
from repro.cluster.machine import Cluster
from repro.instruments import ClusterStats
from repro.network.faults import FaultPlan
from repro.network.packet import BULK_FRAGMENT
from repro.serve import KVServe

ARRAYS = ClusterStats._ARRAY_FIELDS + ClusterStats._FLOAT_ARRAY_FIELDS


class NumpyStats(ClusterStats):
    """``ClusterStats`` as it was: the arrays are the counters, and the
    run's hooks move them."""

    def on_begin(self, sim, cluster, app_name):
        super().on_begin(sim, cluster, app_name)
        self.cost = DialedCost(cluster.params, cluster.knobs)

    def start_measurement(self, now):
        self.started_at = now
        self.enabled = True

    def stop_measurement(self, now):
        self.finished_at = now
        self.enabled = False

    def _fold(self):
        """Nothing to fold; reads return the arrays as they stand."""

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


class _Restarts(Application):
    """Short, read, bulk and bulk-read traffic, with rank 0 stopping
    the region, starting it again, starting it while it runs, and
    reading the counters in between; ``reads`` keeps what the two stats
    objects showed at each read."""

    name = "restarts"

    def __init__(self):
        self.reads = []

    def run_rank(self, proc):
        cells = proc.allocate(64 * proc.n_ranks, name="cells")
        peer = (proc.rank + 1) % proc.n_ranks
        for phase in range(4):
            for index in range(3):
                yield from proc.write(cells, 64 * peer + index, phase)
                yield from proc.read(cells, 64 * peer + index)
            yield from proc.bulk_put(cells, 64 * peer + 8, [phase] * 40)
            yield from proc.bulk_get(cells, 64 * peer + 8, 40)
            yield from proc.sync()
            if proc.rank == 0:
                proc.probes.mark(0, ("stop", "start", "start", "stop")[phase])
                self._look(proc)
        yield from proc.barrier()
        if proc.rank == 0:
            proc.probes.mark(0, "start")

    def _look(self, proc):
        observers = [proc.stats, self.reference]
        self.reads.append([
            [getattr(stats, name).tobytes() for name in ARRAYS]
            for stats in observers])


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
        ("restarts", Cluster(4, seed=5, knobs=dialed), _Restarts()),
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
    app.reference = reference
    result = cluster.run(app, tracer=reference)
    stats = result.stats
    assert stats.total_messages > 0
    assert stats.tx_busy_us.any()
    # What ``Cluster.run`` hands the run's own stats and no hook carries.
    reference.reassembly_leaks = stats.reassembly_leaks
    reference.serving = stats.serving
    _assert_same(stats, reference)
    restored = ClusterStats.from_dict(stats.to_dict())
    _assert_same(restored, reference)
    if label == "restarts":
        assert len(app.reads) == 4
        for ours, theirs in app.reads:
            assert ours == theirs
    if label == "lossy":
        assert stats.total_retransmissions > 0
    if label == "one-way":
        assert stats.bulk_messages_sent.sum() > 0


def test_a_read_inside_the_measured_region_is_current():
    """The arrays stay readable at any moment of a run, and a held
    reference catches up at the next read."""
    reads = []

    class Reader(Application):
        name = "reader"

        def run_rank(self, proc):
            cells = proc.allocate(8 * proc.n_ranks, name="cells")
            yield from proc.barrier()
            if proc.rank == 1:
                stats = proc.stats
                held = stats.messages_sent
                to_two = int(stats.matrix[1, 2])
                yield from proc.write(cells, 8 * 2, 1)
                yield from proc.sync()
                reads.append((int(stats.matrix[1, 2]) - to_two,
                              int(stats.bulk_bytes_sent[1])))
                yield from proc.bulk_put(cells, 8 * 2, [1] * 8)
                yield from proc.sync()
                reads.append((held is stats.messages_sent,
                              int(held[1]) == int(stats.matrix[1].sum()),
                              int(stats.bulk_bytes_sent[1])))
            yield from proc.barrier()

    result = Cluster(4, seed=1).run(Reader())
    assert reads == [(1, 0), (True, True, 32)]
    assert result.stats.bulk_bytes_sent.tolist() == [0, 32, 0, 0]
