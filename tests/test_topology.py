"""Tests for the detailed Myrinet switched fabric."""

import numpy as np
import pytest

from repro import Cluster
from repro.apps import RadixSort
from repro.network.packet import Packet, PacketKind
from repro.network.topology import (HOSTS_PER_LEAF, N_LEAF_SWITCHES,
                                    N_SPINE_SWITCHES, SwitchedFabric)
from repro.sim import Simulator


class _StubNic:
    def __init__(self):
        self.received = []

    def receive_from_wire(self, packet):
        self.received.append(packet)


def make_fabric(hop_latency=1.0, **kwargs):
    sim = Simulator()
    fabric = SwitchedFabric(sim, hop_latency=hop_latency, **kwargs)
    return sim, fabric


# -- geometry ---------------------------------------------------------------

def test_ten_switches_as_in_the_paper():
    _sim, fabric = make_fabric()
    assert fabric.n_switches == 10
    assert N_LEAF_SWITCHES * HOSTS_PER_LEAF == 32


def test_leaf_assignment():
    assert SwitchedFabric.leaf_of(0) == 0
    assert SwitchedFabric.leaf_of(3) == 0
    assert SwitchedFabric.leaf_of(4) == 1
    assert SwitchedFabric.leaf_of(31) == 7


def test_hop_counts():
    _sim, fabric = make_fabric()
    assert fabric.hops(0, 1) == 1      # same leaf
    assert fabric.hops(0, 4) == 3      # across leaves
    assert fabric.hops(31, 0) == 3


def test_spine_choice_is_deterministic_and_spread():
    spines = {SwitchedFabric.spine_for(a, b)
              for a in range(N_LEAF_SWITCHES)
              for b in range(N_LEAF_SWITCHES) if a != b}
    assert spines == set(range(N_SPINE_SWITCHES))
    assert SwitchedFabric.spine_for(1, 2) \
        == SwitchedFabric.spine_for(1, 2)


def test_geometry_limits():
    sim = Simulator()
    with pytest.raises(ValueError):
        SwitchedFabric(sim, n_hosts=33)
    with pytest.raises(ValueError):
        SwitchedFabric(sim, hop_latency=-1.0)
    fabric = SwitchedFabric(sim, n_hosts=8)
    with pytest.raises(ValueError):
        fabric.attach(8, _StubNic())


# -- transit ------------------------------------------------------------------

def test_same_leaf_is_one_hop_latency():
    sim, fabric = make_fabric(hop_latency=2.0)
    nic = _StubNic()
    fabric.attach(1, nic)
    fabric.carry(Packet(kind=PacketKind.REQUEST, src=0, dst=1))
    sim.run()
    assert sim.now == pytest.approx(2.0)
    assert fabric.hop_histogram == {1: 1}


def test_cross_leaf_is_three_hops_plus_links():
    sim, fabric = make_fabric(hop_latency=2.0, link_mb_s=160.0)
    nic = _StubNic()
    fabric.attach(5, nic)
    packet = Packet(kind=PacketKind.REQUEST, src=0, dst=5,
                    size_bytes=32)
    fabric.carry(packet)
    sim.run()
    link_time = 2 * 32 / 160.0  # two inter-switch links
    assert sim.now == pytest.approx(3 * 2.0 + link_time)
    assert fabric.hop_histogram == {3: 1}


def test_default_hop_latency_matches_flat_wire_cross_leaf():
    sim = Simulator()
    fabric = SwitchedFabric(sim)  # default 5/3 us per hop
    assert fabric.route_latency(0, 31) == pytest.approx(5.0)


def test_spine_link_contention_serialises_large_packets():
    sim, fabric = make_fabric(hop_latency=0.0, link_mb_s=1.0)
    nic = _StubNic()
    fabric.attach(4, nic)
    # Two 1000-byte packets from the same leaf share the same up link:
    # the second must wait for the first's serialisation.
    for i in range(2):
        fabric.carry(Packet(kind=PacketKind.BULK_FRAGMENT, src=0, dst=4,
                            size_bytes=1000, fragment=(0, 1)))
    sim.run()
    # Each packet takes 1000us up + 1000us down; the up link serialises:
    # second finishes ~1000us after the first.
    assert sim.now >= 3000.0


def test_fifo_per_pair_preserved():
    sim, fabric = make_fabric(hop_latency=1.0)
    nic = _StubNic()
    fabric.attach(9, nic)
    packets = [Packet(kind=PacketKind.REQUEST, src=0, dst=9, payload=i)
               for i in range(6)]
    for packet in packets:
        fabric.carry(packet)
    sim.run()
    received_order = [p.payload for p in nic.received]
    assert received_order == list(range(6))


def test_expected_mean_latency_between_1_and_3_hops():
    _sim, fabric = make_fabric(hop_latency=1.0)
    mean = fabric.expected_mean_latency()
    assert 1.0 < mean < 3.0
    # Most pairs are cross-leaf, so the mean leans toward 3.
    assert mean > 2.5


# -- full stack over the switched fabric ------------------------------------------

def test_cluster_runs_apps_over_myrinet_fabric():
    cluster = Cluster(n_nodes=8, seed=4, fabric="myrinet")
    result = cluster.run(RadixSort(keys_per_proc=64))
    assert np.all(np.diff(result.output) >= 0)


def test_myrinet_and_flat_runtimes_are_close():
    app = RadixSort(keys_per_proc=64)
    flat = Cluster(n_nodes=8, seed=4, fabric="flat").run(app)
    switched = Cluster(n_nodes=8, seed=4, fabric="myrinet").run(app)
    # Same average transit latency; small divergence from route
    # asymmetry and link serialisation only.
    ratio = switched.runtime_us / flat.runtime_us
    assert 0.8 < ratio < 1.3


def test_unknown_fabric_rejected():
    with pytest.raises(ValueError):
        Cluster(n_nodes=4, fabric="tokenring")
