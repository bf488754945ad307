"""The LogGP network substrate.

This package models the machine resources that carry a message from one
node to another, mirroring the Berkeley NOW hardware the paper instruments:

* :mod:`repro.network.loggp` -- the four-parameter LogGP characterisation
  (``L``, ``o``, ``g``, ``G``, plus ``P``) and machine presets.
* :mod:`repro.network.packet` -- short packets and bulk fragments.
* :mod:`repro.network.wire` -- the switch fabric: transit latency and
  finite capacity.
* :mod:`repro.network.nic` -- the LANai-style network interface with
  independent transmit and receive contexts, per-message gap
  serialisation, and the receiver-side delay queue used to dial ``L``.
* :mod:`repro.network.faults` -- seeded fault injection (drops and
  delay spikes) and the errors its reliability protocol can surface.
"""

from repro.network.faults import (DelaySpike, FaultError, FaultInjector,
                                  FaultPlan, RetryExhausted)
from repro.network.loggp import LogGPParams
from repro.network.packet import BULK_FRAGMENT_BYTES, Packet
from repro.network.nic import Nic
from repro.network.wire import Wire

__all__ = ["LogGPParams", "Packet", "BULK_FRAGMENT_BYTES", "Nic", "Wire",
           "FaultPlan", "FaultInjector", "DelaySpike", "FaultError",
           "RetryExhausted"]
