"""Unit tests for stats, Table 4 summaries, and Figure 4 rendering.

``ClusterStats`` reads counters that the components of a run keep.  The
tests here drive it through fake ranks: plain objects holding the
counters a ``Proc``, its ``AmLayer`` and its ``Nic`` keep, on a fake
wire, attached as ``Cluster.machine`` attaches a run's."""

import pickle
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.instruments import (ClusterStats, balance_matrix,
                               render_balance, summarize)
from repro.network.packet import SHORT_PACKET_BYTES


def _rank():
    """The counters a ``Proc`` keeps, and its AM layer's and NIC's."""
    nic = SimpleNamespace(tx_busy_us=0.0, retransmissions=0,
                          duplicates_suppressed=0)
    am = SimpleNamespace(sent_to=defaultdict(int), nic=nic, **{
        name: 0 for name in ClusterStats._AM_COUNTERS})
    return SimpleNamespace(am=am, barriers=0, failed_lock_attempts=0,
                           collective_calls={}, collective_bytes={})


class _Counted:
    """``n_nodes`` fake ranks on a fake wire, counted by one
    ``ClusterStats``; each method counts as the real component would."""

    def __init__(self, n_nodes=4, start=True):
        self.ranks = [_rank() for _ in range(n_nodes)]
        self.wire = SimpleNamespace(packets_dropped=defaultdict(int))
        self.stats = ClusterStats(n_nodes)
        self.stats.attach(self.ranks, self.wire)
        if start:
            self.stats.start_measurement(0.0)

    def short(self, src, dst, is_read=False):
        am = self.ranks[src].am
        am.sent_to[dst] += 1
        am.small_bytes_sent += SHORT_PACKET_BYTES
        am.read_messages_sent += is_read
        self.ranks[dst].am.messages_received += 1

    def bulk(self, src, dst, nbytes):
        am = self.ranks[src].am
        am.sent_to[dst] += 1
        am.bulk_messages_sent += 1
        am.bulk_bytes_sent += nbytes
        self.ranks[dst].am.messages_received += 1

    def collective(self, rank, key, nbytes):
        proc = self.ranks[rank]
        proc.collective_calls[key] = proc.collective_calls.get(key, 0) + 1
        proc.collective_bytes[key] = \
            proc.collective_bytes.get(key, 0) + nbytes

    def stop(self, now=100.0):
        self.stats.stop_measurement(now)
        return self.stats


def make_stats(n_nodes=4):
    stats = ClusterStats(n_nodes)
    stats.start_measurement(0.0)
    return stats


def test_on_send_updates_matrix_and_totals():
    counted = _Counted()
    counted.short(0, 1)
    counted.short(0, 2)
    counted.short(1, 0)
    stats = counted.stop()
    assert stats.total_messages == 3
    assert stats.matrix[0, 1] == 1 and stats.matrix[0, 2] == 1
    assert stats.messages_sent[0] == 2
    assert stats.small_bytes_sent.tolist() == [64, 32, 0, 0]
    assert stats.messages_received.tolist() == [1, 1, 1, 0]


def test_bulk_and_read_categories():
    counted = _Counted()
    counted.bulk(0, 1, 10_000)
    counted.short(0, 1, is_read=True)
    stats = counted.stop()
    assert stats.bulk_messages_sent[0] == 1
    assert stats.bulk_bytes_sent[0] == 10_000
    assert stats.read_messages_sent[0] == 1
    assert stats.messages_sent[0] == 2


def test_disabled_stats_ignore_traffic():
    counted = _Counted(n_nodes=2, start=False)
    stats = counted.stats
    counted.short(0, 1)  # before start_measurement
    counted.ranks[0].barriers += 1
    stats.start_measurement(0.0)
    counted.short(0, 1)
    stats.stop_measurement(10.0)
    counted.short(0, 1)  # after stop
    counted.ranks[0].barriers += 1
    assert stats.total_messages == 1
    assert stats.matrix.tolist() == [[0, 1], [0, 0]]
    assert stats.barriers.tolist() == [0, 0]


def test_the_rarer_counters_are_the_components_own():
    """The NIC's, the wire's and the rank's counters are reset at the
    start and copied at the stop, collectives in sorted key order."""
    counted = _Counted(n_nodes=3, start=False)
    ranks = counted.ranks
    ranks[0].am.nic.retransmissions = 5  # before the region
    counted.wire.packets_dropped[2] = 4
    counted.collective(1, "barrier/dissemination", 32)
    counted.stats.start_measurement(0.0)
    ranks[0].am.nic.retransmissions += 2
    ranks[1].am.nic.duplicates_suppressed += 1
    ranks[2].am.nic.tx_busy_us += 1.5
    counted.wire.packets_dropped[0] += 2
    for proc in ranks:
        proc.barriers += 1
    counted.collective(2, "broadcast/binomial", 64)
    counted.collective(0, "allreduce/binomial", 8)
    counted.collective(2, "allreduce/binomial", 8)
    stats = counted.stop()
    assert stats.retransmissions.tolist() == [2, 0, 0]
    assert stats.duplicates_suppressed.tolist() == [0, 1, 0]
    assert stats.tx_busy_us.tolist() == [0.0, 0.0, 1.5]
    assert stats.packets_dropped.tolist() == [2, 0, 0]
    assert stats.barriers.tolist() == [1, 1, 1]
    assert list(stats.collective_calls) == \
        ["allreduce/binomial", "broadcast/binomial"]
    assert stats.collective_calls["allreduce/binomial"].tolist() == \
        [1, 0, 1]
    assert stats.collective_bytes["broadcast/binomial"].tolist() == \
        [0, 0, 64]
    assert stats.total_collectives == 3


def test_failed_lock_attempts_count_the_whole_run():
    counted = _Counted(n_nodes=2, start=False)
    counted.ranks[1].failed_lock_attempts = 3  # in setup
    counted.stats.start_measurement(0.0)
    counted.ranks[1].failed_lock_attempts += 1
    assert counted.stop().failed_lock_attempts.tolist() == [0, 4]


def test_stop_lets_go_of_the_machine():
    counted = _Counted(n_nodes=2)
    counted.short(0, 1)
    stats = counted.stop()
    counted.short(0, 1)
    counted.stats.stop_measurement(200.0)  # nothing attached: no copy
    assert stats.matrix.tolist() == [[0, 1], [0, 0]]
    restored = pickle.loads(pickle.dumps(stats))
    assert restored.to_dict() == stats.to_dict()


def test_runtime_requires_completion():
    stats = ClusterStats(2)
    with pytest.raises(RuntimeError):
        _ = stats.runtime_us
    stats.start_measurement(5.0)
    stats.stop_measurement(25.0)
    assert stats.runtime_us == 20.0


def test_communication_balance_metric():
    counted = _Counted(n_nodes=2)
    for _ in range(9):
        counted.short(0, 1)
    counted.short(1, 0)
    assert counted.stop().communication_balance == pytest.approx(9 / 5)


def test_summary_matches_hand_computation():
    counted = _Counted(n_nodes=2)
    for _ in range(10):
        counted.short(0, 1)
        counted.short(1, 0, is_read=True)
    counted.ranks[0].barriers += 1
    counted.ranks[1].barriers += 1
    stats = counted.stop(10_000.0)  # 10 ms
    summary = summarize("demo", stats)
    assert summary.avg_messages_per_proc == 10
    assert summary.messages_per_proc_per_ms == pytest.approx(1.0)
    assert summary.message_interval_us == pytest.approx(1000.0)
    assert summary.barrier_interval_ms == pytest.approx(10.0)
    assert summary.percent_reads == pytest.approx(50.0)
    assert summary.percent_bulk == 0.0


def test_summary_bandwidths():
    counted = _Counted(n_nodes=2)
    counted.bulk(0, 1, 1024 * 200)
    stats = counted.stop(1e6)  # 1 s
    summary = summarize("bw", stats)
    # 200 KB from node 0 over 1 s, averaged over 2 nodes -> 100 KB/s.
    assert summary.bulk_kb_per_s == pytest.approx(100.0)


def test_balance_matrix_normalised():
    counted = _Counted(n_nodes=3)
    for _ in range(4):
        counted.short(0, 1)
    counted.short(1, 2)
    matrix = balance_matrix(counted.stop())
    assert matrix.max() == 1.0
    assert matrix[0, 1] == 1.0
    assert matrix[1, 2] == pytest.approx(0.25)


def test_balance_matrix_empty_run():
    stats = make_stats(2)
    matrix = balance_matrix(stats)
    assert np.all(matrix == 0)


def test_render_balance_shape():
    counted = _Counted()
    counted.short(2, 3)
    text = render_balance(counted.stop(), title="demo")
    lines = text.splitlines()
    assert "demo" in lines[0]
    assert len(lines) == 2 + 4  # title + header + one row per sender


def test_per_node_rows():
    counted = _Counted(n_nodes=2)
    counted.short(0, 1)
    rows = counted.stop().per_node_rows()
    assert rows[0]["messages_sent"] == 1
    assert rows[1]["messages_sent"] == 0


@pytest.mark.parametrize("field, payload", [
    ("messages_sent", [7]),       # used to load as [7 7 7 7]
    ("messages_sent", 9),         # ... as [9 9 9 9]
    ("matrix", [1, 2, 3, 4]),     # ... as four identical rows
], ids=["truncated", "scalar", "flat-matrix"])
def test_from_dict_rejects_a_wrong_shaped_counter(field, payload):
    data = make_stats(4).to_dict()
    data[field] = payload
    with pytest.raises(ValueError, match=field):
        ClusterStats.from_dict(data)

