"""NOW-sort: disk-paced bulk communication."""

import numpy as np
import pytest

from repro import Cluster, LogGPParams, TuningKnobs
from repro.apps import NowSort


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_nodes=4, seed=31)


def test_nowsort_output_sorted(cluster):
    result = cluster.run(NowSort(records_per_proc=128))
    merged = result.output["sorted"]
    assert np.all(np.diff(merged) >= 0)
    assert len(merged) == 4 * 128


def test_nowsort_range_partition_order(cluster):
    # Keys on rank i must all be <= keys on rank i+1: range partition.
    app = NowSort(records_per_proc=128)
    result = cluster.run(app)
    received = result.output["received_per_node"]
    assert sum(received) == 4 * 128


def test_nowsort_one_way_bulk_profile(cluster):
    summary = cluster.run(NowSort(records_per_proc=256)).summary()
    # Table 4: NOW-sort's data moves as one-way bulk messages (about
    # half of all sends there) and it performs no reads.
    assert summary.percent_bulk > 40.0
    assert summary.percent_reads == 0.0


def test_nowsort_runtime_dominated_by_disk(cluster):
    app = NowSort(records_per_proc=256)
    result = cluster.run(app)
    # Two disk passes over records_per_proc * 100 bytes at 5.5 MB/s.
    bytes_per_node = 256 * 100
    single_pass_us = bytes_per_node / 5.5
    assert result.runtime_us > 1.5 * single_pass_us


def test_nowsort_insensitive_to_moderate_bandwidth_loss():
    base = Cluster(n_nodes=4, seed=31)
    # 10 MB/s is still faster than one 5.5 MB/s disk: no slowdown.
    slowed = base.with_knobs(TuningKnobs.bulk_bandwidth(
        10.0, LogGPParams.berkeley_now()))
    app = NowSort(records_per_proc=256)
    t_base = base.run(app).runtime_us
    t_slow = slowed.run(app).runtime_us
    assert t_slow / t_base < 1.15


def test_nowsort_sensitive_below_disk_bandwidth():
    base = Cluster(n_nodes=4, seed=31)
    crawl = base.with_knobs(TuningKnobs.bulk_bandwidth(
        1.0, LogGPParams.berkeley_now()))
    app = NowSort(records_per_proc=256)
    t_base = base.run(app).runtime_us
    t_crawl = crawl.run(app).runtime_us
    # 1 MB/s is far below the disk: the network finally matters.
    assert t_crawl / t_base > 1.5


def test_nowsort_single_node():
    result = Cluster(n_nodes=1, seed=3).run(
        NowSort(records_per_proc=64))
    assert np.all(np.diff(result.output["sorted"]) >= 0)
    assert result.stats.total_messages == 0


def test_nowsort_rejects_bad_parameters():
    with pytest.raises(ValueError):
        NowSort(records_per_proc=0)
