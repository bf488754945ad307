"""The switch fabric.

The Berkeley NOW's Myrinet fabric (ten 8-port switches, 160 MB/s links)
was never the bottleneck in the paper -- the per-message rate was limited
by the LANai, and bulk bandwidth by the SBus DMA.  The paper also observes
that the effective capacity constraint of the system is the Active Message
layer's fixed flow-control window rather than the LogP ``L/g`` bound.  The
wire is therefore modelled as a pure transit delay of ``L`` microseconds
per packet with unlimited internal bandwidth; rate limits live in the NIC
(gap, Gap) and the AM layer (window).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.instruments.probes import Probes
from repro.network.packet import Packet

__all__ = ["Wire"]


class Wire:
    """Point-to-point transit between NICs with latency ``L``.

    NICs register themselves via :meth:`attach`; :meth:`carry` schedules
    delivery of a packet into the destination NIC's receive context after
    the base latency.

    An optional :class:`~repro.network.faults.FaultInjector` makes the
    fabric imperfect: it may drop a packet outright or stretch its
    transit (a delay spike).  Without an injector the
    fast path is untouched.
    """

    def __init__(self, sim: "Simulator", latency: float,  # noqa: F821
                 injector: Optional["FaultInjector"] = None,  # noqa: F821
                 probes: Optional[Probes] = None) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        self.sim = sim
        self.latency = latency
        self.injector = injector
        if probes is None:
            probes = Probes()
        self._on_packet_dropped = probes.packet_dropped
        #: node id -> its NIC's ``receive_from_wire``, which each packet
        #: is scheduled into directly.
        self._receivers: Dict[int, Callable[[Packet], None]] = {}
        self._packets_dropped = 0

    def attach(self, node_id: int, nic: "Nic") -> None:  # noqa: F821
        """Register the NIC serving ``node_id``."""
        if node_id in self._receivers:
            raise ValueError(f"node {node_id} already attached")
        self._receivers[node_id] = nic.receive_from_wire

    def carry(self, packet: Packet) -> None:
        """Put ``packet`` on the wire; it arrives at ``dst`` after ``L``
        (or later -- or never -- under an active fault plan)."""
        if packet.dst not in self._receivers:
            raise KeyError(f"no NIC attached for node {packet.dst}")
        if self.injector is None:
            delay = self.latency
        else:
            delay = self.injector.transit_delay(packet, self.sim.now,
                                                self.latency)
            if delay is None:
                self._packets_dropped += 1
                hook = self._on_packet_dropped
                if hook is not None:
                    hook(packet.src, packet)
                return
        self.sim.call_in(delay, self._receivers[packet.dst], packet)

    @property
    def packets_dropped(self) -> int:
        """Total packets removed by the fault injector."""
        return self._packets_dropped
