"""A detailed Myrinet-style switched fabric (optional substrate).

The flat :class:`~repro.network.wire.Wire` charges every packet the same
transit latency — the right abstraction for reproducing the paper, whose
LogP methodology deliberately hides network structure.  This module adds
the *actual* structure of the Berkeley NOW's network for studies that
want it: **ten 8-port M2F switches** (the paper's Section 3.1) arranged
as eight leaf switches of four hosts each plus two spine switches, with
160 MB/s links.

* Hosts on the same leaf are one switch hop apart; across leaves the
  route is leaf → spine → leaf (three hops).  The spine is chosen
  deterministically by source-leaf/destination-leaf parity, spreading
  load without reordering any (src, dst) pair's packets.
* Each inter-switch link serialises packets at the link bandwidth, so
  congestion through a shared spine is observable — something the flat
  wire cannot express.

Use ``Cluster(..., fabric="myrinet")`` to run the whole stack over this
fabric; per-hop latency defaults are calibrated so the *average* route
matches the flat wire's ``L``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.network.packet import Packet
from repro.sim import Resource, Simulator

__all__ = ["SwitchedFabric", "HOSTS_PER_LEAF", "N_LEAF_SWITCHES",
           "N_SPINE_SWITCHES"]

#: The Berkeley NOW: 32 hosts over ten 8-port switches.
HOSTS_PER_LEAF = 4
N_LEAF_SWITCHES = 8
N_SPINE_SWITCHES = 2
SWITCH_PORTS = 8

#: Per-port link bandwidth of the M2F switch (MB/s = bytes/µs).
LINK_MB_S = 160.0


class SwitchedFabric:
    """Ten-switch Myrinet fabric; drop-in replacement for ``Wire``.

    Parameters
    ----------
    sim:
        The simulator.
    hop_latency:
        Per-switch-traversal latency in µs.  The default (5.0/3) makes a
        cross-leaf route cost the flat wire's 5 µs.
    link_mb_s:
        Serialisation bandwidth of each inter-switch link.
    n_hosts:
        Hosts attached (≤ 32 for the standard geometry).
    """

    def __init__(self, sim: Simulator, hop_latency: float = 5.0 / 3.0,
                 link_mb_s: float = LINK_MB_S,
                 n_hosts: int = HOSTS_PER_LEAF * N_LEAF_SWITCHES) -> None:
        if hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0: {hop_latency}")
        if link_mb_s <= 0:
            raise ValueError(f"link_mb_s must be > 0: {link_mb_s}")
        max_hosts = HOSTS_PER_LEAF * N_LEAF_SWITCHES
        if not 1 <= n_hosts <= max_hosts:
            raise ValueError(
                f"this geometry supports 1..{max_hosts} hosts, "
                f"got {n_hosts}")
        self.sim = sim
        self.hop_latency = hop_latency
        self.link_mb_s = link_mb_s
        self.n_hosts = n_hosts
        self._nics: Dict[int, "Nic"] = {}  # noqa: F821
        #: One serialising resource per directed inter-switch link:
        #: (leaf, spine, direction) -> Resource.
        self._links: Dict[Tuple[str, int, int], Resource] = {}
        for leaf in range(N_LEAF_SWITCHES):
            for spine in range(N_SPINE_SWITCHES):
                for direction in ("up", "down"):
                    self._links[(direction, leaf, spine)] = Resource(
                        sim, capacity=1,
                        name=f"link-{direction}-{leaf}-{spine}")
        self._hop_histogram: Dict[int, int] = {}

    # -- topology queries ----------------------------------------------------
    @staticmethod
    def leaf_of(host: int) -> int:
        """The leaf switch a host hangs off."""
        return host // HOSTS_PER_LEAF

    @staticmethod
    def spine_for(src_leaf: int, dst_leaf: int) -> int:
        """Deterministic spine choice for a leaf pair (load spreading
        that keeps each (src, dst) pair on one path — no reordering)."""
        return (src_leaf + dst_leaf) % N_SPINE_SWITCHES

    def hops(self, src: int, dst: int) -> int:
        """Switch traversals on the route from ``src`` to ``dst``."""
        if self.leaf_of(src) == self.leaf_of(dst):
            return 1
        return 3  # leaf, spine, leaf

    def route_latency(self, src: int, dst: int) -> float:
        """Pure propagation latency of the route (no queueing)."""
        return self.hops(src, dst) * self.hop_latency

    @property
    def n_switches(self) -> int:
        return N_LEAF_SWITCHES + N_SPINE_SWITCHES

    # -- Wire-compatible interface ----------------------------------------------
    def attach(self, node_id: int, nic: "Nic") -> None:  # noqa: F821
        """Register the NIC serving ``node_id``."""
        if node_id in self._nics:
            raise ValueError(f"node {node_id} already attached")
        if not 0 <= node_id < self.n_hosts:
            raise ValueError(
                f"node {node_id} outside 0..{self.n_hosts - 1}")
        self._nics[node_id] = nic

    def carry(self, packet: Packet) -> None:
        """Route ``packet`` through the switches to its destination."""
        nic = self._nics.get(packet.dst)
        if nic is None:
            raise KeyError(f"no NIC attached for node {packet.dst}")
        hops = self.hops(packet.src, packet.dst)
        self._hop_histogram[hops] = self._hop_histogram.get(hops, 0) + 1
        self.sim.process(self._route(packet, nic),
                         name=f"route:{packet.xfer_id}")

    def _route(self, packet: Packet, nic: "Nic"):  # noqa: F821
        src_leaf = self.leaf_of(packet.src)
        dst_leaf = self.leaf_of(packet.dst)
        yield self.hop_latency  # source leaf switch
        if src_leaf != dst_leaf:
            spine = self.spine_for(src_leaf, dst_leaf)
            yield from self._traverse_link(("up", src_leaf, spine),
                                           packet)
            yield self.hop_latency  # spine switch
            yield from self._traverse_link(("down", dst_leaf, spine),
                                           packet)
            yield self.hop_latency  # destination leaf
        nic.receive_from_wire(packet)

    def _traverse_link(self, key: Tuple[str, int, int], packet: Packet):
        """Serialise the packet over one inter-switch link."""
        link = self._links[key]
        request = link.request()
        yield request
        try:
            yield packet.size_bytes / self.link_mb_s
        finally:
            link.release()

    # -- diagnostics -----------------------------------------------------------
    @property
    def hop_histogram(self) -> Dict[int, int]:
        """How many packets took 1-hop vs 3-hop routes."""
        return dict(self._hop_histogram)

    def expected_mean_latency(self) -> float:
        """Mean propagation latency over uniform host pairs (no
        queueing, no link serialisation)."""
        total = 0.0
        pairs = 0
        for src in range(self.n_hosts):
            for dst in range(self.n_hosts):
                if src != dst:
                    total += self.route_latency(src, dst)
                    pairs += 1
        return total / pairs if pairs else 0.0
