"""Unit tests for stats, Table 4 summaries, and Figure 4 rendering.

The message counters are the AM layers' own: each test sends through
real ``AmLayer`` s on one wire, counted by a ``ClusterStats`` attached
to them as ``Cluster.machine`` attaches a run's."""

import numpy as np
import pytest

from repro.am.layer import HandlerTable
from repro.instruments import (ClusterStats, balance_matrix,
                               render_balance, summarize)
from tests.helpers import Fabric


class _Counted:
    """``n_nodes`` AM layers whose sends a ``ClusterStats`` counts; no
    host polls, so a request is counted and never answered."""

    def __init__(self, n_nodes=4, start=True):
        table = HandlerTable()
        table.register("h", lambda am, packet: None)
        self.fabric = Fabric(n_nodes, table=table, window=64)
        self.stats = ClusterStats(n_nodes)
        self.stats.attach(self.fabric.ams)
        if start:
            self.stats.start_measurement(0.0)

    def short(self, src, dst, is_read=False):
        self.fabric.run(self.fabric.ams[src].send_request(
            dst, "h", is_read=is_read))

    def bulk(self, src, dst, nbytes):
        self.fabric.run(self.fabric.ams[src].bulk_store(
            dst, "h", None, nbytes))


def make_stats(n_nodes=4):
    stats = ClusterStats(n_nodes)
    stats.start_measurement(0.0)
    return stats


def test_on_send_updates_matrix_and_totals():
    counted = _Counted()
    counted.short(0, 1)
    counted.short(0, 2)
    counted.short(1, 0)
    stats = counted.stats
    assert stats.total_messages == 3
    assert stats.matrix[0, 1] == 1 and stats.matrix[0, 2] == 1
    assert stats.messages_sent[0] == 2
    assert stats.small_bytes_sent.tolist() == [64, 32, 0, 0]


def test_bulk_and_read_categories():
    counted = _Counted()
    counted.bulk(0, 1, 10_000)
    counted.short(0, 1, is_read=True)
    stats = counted.stats
    assert stats.bulk_messages_sent[0] == 1
    assert stats.bulk_bytes_sent[0] == 10_000
    assert stats.read_messages_sent[0] == 1
    assert stats.messages_sent[0] == 2


def test_disabled_stats_ignore_traffic():
    counted = _Counted(n_nodes=2, start=False)
    stats = counted.stats
    counted.short(0, 1)  # before start_measurement
    assert stats.total_messages == 0
    stats.start_measurement(0.0)
    counted.short(0, 1)
    stats.stop_measurement(10.0)
    counted.short(0, 1)  # after stop
    assert stats.total_messages == 1
    assert stats.matrix.tolist() == [[0, 1], [0, 0]]


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
    assert counted.stats.communication_balance == pytest.approx(9 / 5)


def test_summary_matches_hand_computation():
    counted = _Counted(n_nodes=2)
    for _ in range(10):
        counted.short(0, 1)
        counted.short(1, 0, is_read=True)
    stats = counted.stats
    stats.on_barrier(0)
    stats.on_barrier(1)
    stats.stop_measurement(10_000.0)  # 10 ms
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
    stats = counted.stats
    stats.stop_measurement(1e6)  # 1 s
    summary = summarize("bw", stats)
    # 200 KB from node 0 over 1 s, averaged over 2 nodes -> 100 KB/s.
    assert summary.bulk_kb_per_s == pytest.approx(100.0)


def test_balance_matrix_normalised():
    counted = _Counted(n_nodes=3)
    for _ in range(4):
        counted.short(0, 1)
    counted.short(1, 2)
    matrix = balance_matrix(counted.stats)
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
    text = render_balance(counted.stats, title="demo")
    lines = text.splitlines()
    assert "demo" in lines[0]
    assert len(lines) == 2 + 4  # title + header + one row per sender


def test_per_node_rows():
    counted = _Counted(n_nodes=2)
    counted.short(0, 1)
    rows = counted.stats.per_node_rows()
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

