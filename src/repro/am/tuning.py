"""The paper's experimental apparatus: independent LogGP dials.

Section 3.2 of the paper modifies the communication layer so that each
LogGP parameter can be raised independently of the others:

* ``delta_o`` -- a stall loop executed by the *host* processor on every
  message send and before every message reception.
* ``delta_g`` -- a stall in the NIC transmit context *after* a message is
  injected onto the wire (so latency and overhead are unaffected; the
  receive context keeps running thanks to the LANai's dual contexts).
* ``delta_L`` -- a receiver-side delay queue: an arriving message is
  deposited normally but only marked *valid* ``delta_L`` microseconds
  after its arrival, leaving ``o`` and ``g`` untouched.
* ``delta_G`` -- a transmit-context stall after injecting each bulk
  fragment, proportional to the fragment size.

All values are *additive* to the baseline machine's parameters.

:class:`DialedCost` is the one definition of what those dials charge
per message: the AM layer's host charges, the NIC's transmit cycle, the
recorder's rows, the simcost replay and the collective ranking model
all read it.  It lives here, beside the dials, because the NIC needs it
and ``repro.network`` must never import ``repro.cost``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

from repro.network.loggp import LogGPParams

__all__ = ["TuningKnobs", "DialedCost"]


@dataclass(frozen=True)
class TuningKnobs:
    """Additive adjustments to the four LogGP parameters (µs, µs/byte)."""

    #: Host stall added to every send and every reception (µs).  The
    #: effective ``o`` becomes ``o_base + delta_o``.
    delta_o: float = 0.0
    #: Transmit-context stall after each injection (µs); effective ``g``
    #: becomes ``g_base + delta_g``.
    delta_g: float = 0.0
    #: Receiver delay-queue hold time (µs); effective ``L`` becomes
    #: ``L_base + delta_L``.
    delta_L: float = 0.0
    #: Added transmit stall per bulk byte (µs/byte); effective ``G``
    #: becomes ``G_base + delta_G``.
    delta_G: float = 0.0
    #: NIC-context *occupancy* per message (µs), charged at both the
    #: sending and receiving interface.  Not one of the paper's four
    #: dials — it is the parameter of the Flash study the paper compares
    #: against in Section 6 ("occupancy is part of our latency as well
    #: as gap"): it adds to every round trip AND serialises the rate at
    #: which each interface can process messages.
    delta_occ: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("delta_o", "delta_g", "delta_L", "delta_G",
                           "delta_occ"):
            value = getattr(self, field_name)
            if not 0 <= value < math.inf:  # NaN too
                raise ValueError(
                    f"{field_name} must be finite and >= 0 (the apparatus "
                    f"can only slow the machine down), got {value}")

    @property
    def is_baseline(self) -> bool:
        """True when no dial is turned (the unmodified machine)."""
        return (self.delta_o == 0 and self.delta_g == 0
                and self.delta_L == 0 and self.delta_G == 0
                and self.delta_occ == 0)

    def with_changes(self, **changes: float) -> "TuningKnobs":
        """Return a copy with the given dials replaced."""
        return replace(self, **changes)

    # -- convenience constructors mirroring the paper's sweeps ------------
    @classmethod
    def added_overhead(cls, delta_o: float) -> "TuningKnobs":
        """Dial only overhead up by ``delta_o`` µs (Figure 5 sweeps)."""
        return cls(delta_o=delta_o)

    @classmethod
    def added_gap(cls, delta_g: float) -> "TuningKnobs":
        """Dial only gap up by ``delta_g`` µs (Figure 6 sweeps)."""
        return cls(delta_g=delta_g)

    @classmethod
    def added_latency(cls, delta_L: float) -> "TuningKnobs":
        """Dial only latency up by ``delta_L`` µs (Figure 7 sweeps)."""
        return cls(delta_L=delta_L)

    @classmethod
    def added_occupancy(cls, delta_occ: float) -> "TuningKnobs":
        """Dial only NIC occupancy up by ``delta_occ`` µs (the Flash
        study's parameter; an extension beyond the paper's sweeps)."""
        return cls(delta_occ=delta_occ)

    @classmethod
    def bulk_bandwidth(cls, mb_per_s: float,
                       base: LogGPParams) -> "TuningKnobs":
        """Dial ``G`` so the bulk bandwidth becomes ``mb_per_s`` MB/s.

        Used for the Figure 8 sweep ("maximum available bulk transfer
        bandwidth").  Requesting more bandwidth than the baseline provides
        yields the baseline (the apparatus can only slow the machine),
        as does infinite bandwidth.
        """
        if not mb_per_s > 0:  # NaN too
            raise ValueError(f"bandwidth must be > 0, got {mb_per_s}")
        target_G = 1.0 / mb_per_s
        return cls(delta_G=max(0.0, target_G - base.Gap))

    def describe(self) -> str:
        """One-line summary of the non-zero dials."""
        parts = []
        if self.delta_o:
            parts.append(f"+o={self.delta_o}us")
        if self.delta_g:
            parts.append(f"+g={self.delta_g}us")
        if self.delta_L:
            parts.append(f"+L={self.delta_L}us")
        if self.delta_G:
            parts.append(f"+G={self.delta_G}us/B")
        if self.delta_occ:
            parts.append(f"+occ={self.delta_occ}us")
        return " ".join(parts) if parts else "baseline"


class DialedCost:
    """The per-message LogGP charge at one ``(params, knobs)`` point.

    * host: a send costs ``o_send + delta_o``, a reception
      ``o_recv + delta_o`` (:class:`~repro.am.layer.AmLayer`);
    * NIC transmit context, per packet (:meth:`tx_cycle`): a bulk
      fragment is first DMAed into the card, ``delta_occ + size * G``
      (a short packet was staged by the host as part of ``o``, so only
      ``delta_occ``), then injected, then the context stalls for
      ``max(0, g - pre) + delta_g``, plus ``size * delta_G`` for bulk
      (Section 5.4: small messages are never slowed by the bandwidth
      dial);
    * wire: ``L + delta_L``, the fabric latency plus the receiving NIC's
      delay queue, which every packet rides, CREDITs included.

    The receive context's ``delta_occ`` is not part of the charge.  Each
    form is linear in its dial, so simcost's predicted runtime -- a max
    over path sums of these forms -- is piecewise-linear in every dial.
    """

    __slots__ = ("send_charge", "recv_charge", "wire",
                 "_gap", "_delta_g", "_Gap", "_delta_G", "_delta_occ")

    def __init__(self, params: LogGPParams, knobs: TuningKnobs) -> None:
        #: Host time per send / reception (``o + delta_o``).
        self.send_charge = params.send_overhead + knobs.delta_o
        self.recv_charge = params.recv_overhead + knobs.delta_o
        #: Injection-to-valid time per packet (``L + delta_L``).
        self.wire = params.latency + knobs.delta_L
        self._gap = params.gap
        self._delta_g = knobs.delta_g
        self._Gap = params.Gap
        self._delta_G = knobs.delta_G
        self._delta_occ = knobs.delta_occ

    def tx_cycle(self, size_bytes: int, bulk: bool) -> Tuple[float, float]:
        """One transmit-context cycle: ``(pre_injection, post_stall)``;
        ``size_bytes`` only counts when ``bulk``."""
        pre = self._delta_occ
        if bulk:
            pre += size_bytes * self._Gap
        stall = max(0.0, self._gap - pre) + self._delta_g
        if bulk:
            stall += size_bytes * self._delta_G
        return pre, stall
