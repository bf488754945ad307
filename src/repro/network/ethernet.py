"""A mid-90s shared-medium LAN fabric (the paper's comparison point).

Section 5.1 calibrates the top of the overhead sweep against "TCP/IP
protocol stacks" on conventional LANs, and Section 5.3 speaks of
"the latencies of store-and-forward networks (100 µs)".  This fabric
models that world, for contrast experiments against the Myrinet-class
wires:

* **a single shared medium** — one packet transmits at a time,
  cluster-wide (10BASE-like hubs/coax rather than a switched fabric);
* **store-and-forward transit** — a packet is fully serialised onto the
  medium at the link bandwidth before it appears at the receiver, plus
  a fixed propagation/forwarding time.

With the defaults (10 Mbit/s ≈ 1.25 MB/s, 50 µs forwarding), a short
packet takes ~75 µs of transit and the whole cluster contends for one
medium — pair it with ``LogGPParams.lan_tcp()`` (100 µs overheads) for
a faithful "the network before NOW" machine:
``Cluster(params=LogGPParams.lan_tcp(), fabric="ethernet")``.
"""

from __future__ import annotations

from typing import Dict

from repro.network.packet import Packet
from repro.sim import Resource, Simulator

__all__ = ["SharedMediumFabric", "ETHERNET_MB_S",
           "STORE_AND_FORWARD_US"]

#: 10 Mbit/s Ethernet in bytes/µs (= MB/s).
ETHERNET_MB_S = 1.25

#: Fixed per-packet propagation + forwarding time (µs).
STORE_AND_FORWARD_US = 50.0


class SharedMediumFabric:
    """One shared medium for the whole cluster; Wire-compatible."""

    def __init__(self, sim: Simulator,
                 bandwidth_mb_s: float = ETHERNET_MB_S,
                 forward_us: float = STORE_AND_FORWARD_US) -> None:
        if bandwidth_mb_s <= 0:
            raise ValueError(
                f"bandwidth must be > 0, got {bandwidth_mb_s}")
        if forward_us < 0:
            raise ValueError(f"forward_us must be >= 0: {forward_us}")
        self.sim = sim
        self.bandwidth_mb_s = bandwidth_mb_s
        self.forward_us = forward_us
        self._nics: Dict[int, "Nic"] = {}  # noqa: F821
        #: The single cable: everything serialises here.
        self._medium = Resource(sim, capacity=1, name="ether-medium")
        self._in_flight = 0
        self._max_in_flight = 0
        self._packets_carried = 0
        self.medium_busy_us = 0.0

    def transmit_time(self, packet: Packet) -> float:
        """Serialisation time of one packet on the medium."""
        return packet.size_bytes / self.bandwidth_mb_s

    # -- Wire-compatible interface ------------------------------------------
    def attach(self, node_id: int, nic: "Nic") -> None:  # noqa: F821
        """Register the NIC serving ``node_id``."""
        if node_id in self._nics:
            raise ValueError(f"node {node_id} already attached")
        self._nics[node_id] = nic

    def carry(self, packet: Packet) -> None:
        """Contend for the medium, then store-and-forward to ``dst``."""
        nic = self._nics.get(packet.dst)
        if nic is None:
            raise KeyError(f"no NIC attached for node {packet.dst}")
        self._in_flight += 1
        self._max_in_flight = max(self._max_in_flight, self._in_flight)
        self._packets_carried += 1
        packet.injected_at = self.sim.now
        self.sim.process(self._transmit(packet, nic),
                         name=f"ether:{packet.xfer_id}")

    def _transmit(self, packet: Packet, nic: "Nic"):  # noqa: F821
        grant = self._medium.request()
        yield grant
        try:
            hold = self.transmit_time(packet)
            self.medium_busy_us += hold
            yield hold
        finally:
            self._medium.release()
        # Store-and-forward: the receiver sees it after the fixed
        # forwarding/propagation time, off the medium.
        yield self.forward_us
        self._in_flight -= 1
        nic.receive_from_wire(packet)

    # -- diagnostics -----------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def max_in_flight(self) -> int:
        return self._max_in_flight

    @property
    def packets_carried(self) -> int:
        return self._packets_carried

    def utilisation(self) -> float:
        """Fraction of elapsed simulated time the medium was busy."""
        if self.sim.now == 0:
            return 0.0
        return self.medium_busy_us / self.sim.now
