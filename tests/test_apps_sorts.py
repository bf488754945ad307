"""Correctness and characteristics of the three sorts (Radix, Sample,
Radb) across cluster sizes and inputs.

Every run validates its own output inside ``finalize`` (a wrong sort
raises), so these tests primarily pin down *communication* properties:
message counts, balance, bulk usage.
"""

import numpy as np
import pytest

from repro import Cluster
from repro.apps import RadixSort, RadixBulk, SampleSort


@pytest.fixture(scope="module")
def cluster():
    return Cluster(n_nodes=4, seed=7)


# -- Radix ------------------------------------------------------------------

def test_radix_sorts_correctly(cluster):
    result = cluster.run(RadixSort(keys_per_proc=64))
    assert result.output is not None
    assert len(result.output) == 4 * 64
    assert np.all(np.diff(result.output) >= 0)


def test_radix_single_node_degenerate():
    result = Cluster(n_nodes=1, seed=3).run(RadixSort(keys_per_proc=32))
    assert np.all(np.diff(result.output) >= 0)
    # One node: the sort is purely local.
    assert result.stats.total_messages == 0


def test_radix_two_nodes():
    result = Cluster(n_nodes=2, seed=11).run(RadixSort(keys_per_proc=48))
    assert np.all(np.diff(result.output) >= 0)


def test_radix_odd_node_count():
    result = Cluster(n_nodes=5, seed=2).run(RadixSort(keys_per_proc=40))
    assert len(result.output) == 5 * 40


def test_radix_multiple_passes_needed():
    # 16-bit keys with an 8-bit radix: exactly two passes, like the
    # paper's two iterations.
    app = RadixSort(keys_per_proc=32)
    assert app.n_passes == 2
    Cluster(n_nodes=3, seed=1).run(app)


def test_radix_communication_is_balanced(cluster):
    result = cluster.run(RadixSort(keys_per_proc=64))
    # Paper: Radix communication is frequent and balanced (Figure 4a).
    assert result.stats.communication_balance < 1.35


def test_radix_message_count_scales_with_keys(cluster):
    # The distribution phase's message count scales ~linearly with
    # keys; the histogram phase's stays fixed.
    small = cluster.run(RadixSort(keys_per_proc=32))
    large = cluster.run(RadixSort(keys_per_proc=128))
    ratio = (large.stats.total_messages / small.stats.total_messages)
    assert 2.0 < ratio < 4.5


def test_radix_mostly_short_messages(cluster):
    result = cluster.run(RadixSort(keys_per_proc=64))
    summary = result.summary()
    assert summary.percent_bulk < 1.0  # Table 4: Radix 0.01% bulk
    assert summary.percent_reads < 1.0  # write-based


def test_radix_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RadixSort(keys_per_proc=0)


# -- Sample -----------------------------------------------------------------

def test_sample_sorts_correctly(cluster):
    result = cluster.run(SampleSort(keys_per_proc=64))
    merged = result.output["sorted"]
    assert np.all(np.diff(merged) >= 0)
    assert len(merged) == 4 * 64


def test_sample_buckets_unbalanced(cluster):
    # The skewed key distribution plus sampled splitters should leave
    # visibly different bucket sizes (Figure 4d's vertical bars).
    result = cluster.run(SampleSort(keys_per_proc=128))
    sizes = result.output["bucket_sizes"]
    assert max(sizes) > min(sizes)


def test_sample_write_based_no_bulk(cluster):
    summary = cluster.run(SampleSort(keys_per_proc=64)).summary()
    assert summary.percent_bulk < 1.0
    assert summary.percent_reads < 1.0


def test_sample_single_node():
    result = Cluster(n_nodes=1, seed=5).run(SampleSort(keys_per_proc=32))
    assert np.all(np.diff(result.output["sorted"]) >= 0)


# -- Radb -------------------------------------------------------------------

def test_radb_sorts_correctly(cluster):
    result = cluster.run(RadixBulk(keys_per_proc=64))
    assert np.all(np.diff(result.output) >= 0)


def test_radb_uses_bulk_messages(cluster):
    summary = cluster.run(RadixBulk(keys_per_proc=64)).summary()
    # Table 4: Radb moves its data via bulk messages; at our scaled-down
    # input the histogram's short messages weigh more than at the
    # paper's 16M keys, but the bulk share must still be visible.
    assert summary.percent_bulk > 5.0


def test_radb_sends_far_fewer_messages_than_radix(cluster):
    radix = cluster.run(RadixSort(keys_per_proc=64))
    radb = cluster.run(RadixBulk(keys_per_proc=64))
    # The whole point of the restructuring: per-destination bulk
    # messages instead of per-key short messages.
    assert radb.stats.total_messages < radix.stats.total_messages / 2


def test_radb_and_radix_agree(cluster):
    radix = cluster.run(RadixSort(keys_per_proc=64))
    radb = cluster.run(RadixBulk(keys_per_proc=64))
    assert np.array_equal(radix.output, radb.output)
