"""The LogGP machine characterisation (Culler et al.; Alexandrov et al.).

A distributed-memory machine is characterised by:

* ``L`` -- latency: wire + switch transit time for a short message, in µs.
* ``o`` -- overhead: processor time spent sending *or* receiving one
  message, in µs.  The paper calibrates separate send/receive overheads
  (1.8 µs / 4 µs on the NOW) and models ``o`` as their average; we keep
  both and expose the average.
* ``g`` -- gap: minimum interval between successive message injections
  (or receptions) at one node, in µs; ``1/g`` is the small-message rate.
* ``G`` -- Gap per byte for bulk transfers, in µs/byte; ``1/G`` is the
  bulk bandwidth in MB/s (bytes/µs ≡ MB/s).
* ``P`` -- number of processors (carried by the cluster, not here).

The network has finite capacity: at most ``ceil(L/g)`` short messages may
be in flight to or from any one node; a sender that would exceed this
stalls (Section 2 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["LogGPParams"]


@dataclass(frozen=True)
class LogGPParams:
    """Baseline LogGP parameters of a machine, all times in microseconds.

    Instances are immutable; derive variants with :meth:`with_changes`.
    """

    #: Wire/switch transit latency for a short message (µs).
    latency: float = 5.0
    #: Processor overhead to *send* one short message (µs).
    send_overhead: float = 1.8
    #: Processor overhead to *receive* one short message (µs).
    recv_overhead: float = 4.0
    #: Minimum interval between message injections at one NIC (µs).
    gap: float = 5.8
    #: Bulk transfer time per byte (µs/byte); 1/G is bandwidth in MB/s.
    Gap: float = 1.0 / 38.0

    def __post_init__(self) -> None:
        for field_name in ("latency", "send_overhead", "recv_overhead",
                           "gap", "Gap"):
            value = getattr(self, field_name)
            if not 0 <= value < math.inf:  # NaN too
                raise ValueError(
                    f"{field_name} must be finite and >= 0, got {value}")
        if self.gap <= 0:
            raise ValueError("gap must be > 0 (it bounds message rate)")

    # -- derived quantities ----------------------------------------------
    @property
    def overhead(self) -> float:
        """The paper's single ``o``: average of send and receive overhead."""
        return (self.send_overhead + self.recv_overhead) / 2.0

    @property
    def bulk_bandwidth_mb_s(self) -> float:
        """Bulk transfer bandwidth in MB/s (= 1/G)."""
        if self.Gap == 0:
            return math.inf
        return 1.0 / self.Gap

    @property
    def capacity(self) -> int:
        """Max short messages in flight to/from one node: ``ceil(L/g)``."""
        return max(1, math.ceil(self.latency / self.gap))

    def round_trip_time(self) -> float:
        """Model RTT of a request/response pair: ``2L + 4o`` (Section 2)."""
        return 2.0 * self.latency + 4.0 * self.overhead

    def one_way_time(self) -> float:
        """Model time for a single short message: ``L + 2o``."""
        return self.latency + 2.0 * self.overhead

    def with_changes(self, **changes: float) -> "LogGPParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # -- machine presets (Table 1 of the paper) ---------------------------
    @classmethod
    def berkeley_now(cls) -> "LogGPParams":
        """The Berkeley NOW baseline: o=2.9, g=5.8, L=5.0, 38 MB/s."""
        return cls(latency=5.0, send_overhead=1.8, recv_overhead=4.0,
                   gap=5.8, Gap=1.0 / 38.0)

    @classmethod
    def intel_paragon(cls) -> "LogGPParams":
        """Intel Paragon: o=1.8, g=7.6, L=6.5, 141 MB/s."""
        return cls(latency=6.5, send_overhead=1.8, recv_overhead=1.8,
                   gap=7.6, Gap=1.0 / 141.0)

    @classmethod
    def meiko_cs2(cls) -> "LogGPParams":
        """Meiko CS-2: o=1.7, g=13.6, L=7.5, 47 MB/s."""
        return cls(latency=7.5, send_overhead=1.7, recv_overhead=1.7,
                   gap=13.6, Gap=1.0 / 47.0)

    @classmethod
    def lan_tcp(cls) -> "LogGPParams":
        """A conventional LAN with a TCP/IP stack: ~100 µs overhead
        with latency and gap comparable to the NOW fabric (Section 5.1)."""
        return cls(latency=5.0, send_overhead=100.0, recv_overhead=100.0,
                   gap=5.8, Gap=1.0 / 10.0)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (f"LogGP(o={self.overhead:.1f}us, g={self.gap:.1f}us, "
                f"L={self.latency:.1f}us, "
                f"1/G={self.bulk_bandwidth_mb_s:.0f}MB/s)")
