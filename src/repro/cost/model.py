"""Closed-form LogGP edge costs for the symbolic analyzer.

Every edge weight of the replayed DAG is a closed-form expression in
the paper's four dials.  :class:`DialedCost` materialises those
expressions at one ``(params, knobs)`` point, mirroring the charging
code exactly:

* host edges (``repro.am.layer``): a send costs ``o_send + delta_o``,
  a reception ``o_recv + delta_o``;
* NIC transmit edges (``repro.network.nic``): per fragment, a
  pre-injection DMA of ``delta_occ + size * G`` (bulk only; short
  packets are staged by the host as part of ``o``), then a
  post-injection stall of ``max(0, g - pre) + delta_g`` plus
  ``size * delta_G`` for bulk — the short-vs-bulk rule of
  ``network/loggp.py`` (Section 5.4: small messages are never slowed
  by the bandwidth dial);
* wire edges: ``L + delta_L`` — the baseline fabric latency plus the
  receiving NIC's delay queue, which applies to *every* packet,
  including flow-control CREDITs.

Each form is linear in its dial, so predicted runtime — a max over
path sums of these forms — is piecewise-linear in every dial: the
property :func:`repro.cost.predict.latency_tolerance` exploits.

Collective phases need no special casing in the replay: their
constituent AMs are recorded like any others.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams
from repro.network.packet import BULK_FRAGMENT_BYTES

__all__ = ["DialedCost"]


class DialedCost:
    """All edge-cost forms evaluated at one ``(params, knobs)`` point."""

    __slots__ = ("params", "knobs", "send_charge", "recv_charge", "wire",
                 "_gap", "_delta_g", "_Gap", "_delta_G", "_delta_occ")

    def __init__(self, params: LogGPParams, knobs: TuningKnobs) -> None:
        self.params = params
        self.knobs = knobs
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
        """One transmit-context cycle: ``(pre_injection, post_stall)``.

        Mirrors ``Nic._pre_injection_time`` / ``_post_injection_stall``
        term for term.
        """
        pre = self._delta_occ
        if bulk:
            pre += size_bytes * self._Gap
        stall = max(0.0, self._gap - pre) + self._delta_g
        if bulk:
            stall += size_bytes * self._delta_G
        return pre, stall

    @staticmethod
    def fragment_sizes(nbytes: int) -> List[int]:
        """Fragment sizes of a bulk transfer, as the AM layer cuts it."""
        count = max(1, math.ceil(nbytes / BULK_FRAGMENT_BYTES))
        sizes = [BULK_FRAGMENT_BYTES] * (count - 1)
        sizes.append(max(1, nbytes - BULK_FRAGMENT_BYTES * (count - 1)))
        return sizes
