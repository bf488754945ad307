"""Deterministic fault injection for the simulated fabric.

The paper's apparatus assumes a perfectly reliable Myrinet; this module
lets the wire misbehave in two seeded, reproducible ways so the AM
layer's reliability protocol (see :mod:`repro.network.nic`) has
something to recover from:

* **per-packet drops** -- every packet carried by the wire is dropped
  with probability ``drop_rate``, drawn from a ``RandomState`` derived
  from the run seed (so reruns are bit-identical and cache-keyable);
* **one-off delay spikes** -- in the style of Afzal et al. ("Propagation
  and Decay of Injected One-Off Delays on Clusters"), a node freezes for
  a window ``[start_us, start_us + duration_us)``: packets that would
  arrive at it during the window are held until the window ends.

A :class:`FaultPlan` is a frozen value object describing *what* can go
wrong; it enters the run-cache key spec, so two runs with different
plans never share a cache entry.  A :class:`FaultInjector` is the
per-run realisation: it owns the RNG (derived from the run seed) and
makes the actual drop/delay decisions.

Drops only make sense with a recovery path.  Whenever a plan can drop
packets (``needs_reliability``), every NIC switches on its
sequence-number / ack / retransmit machinery; plans that only delay
packets leave the machinery off so decay traces measure pure delay
propagation.  A transfer whose retries are exhausted raises
:class:`RetryExhausted` (a :class:`FaultError`), which the sweep engine
surfaces as a structured ``N/A`` point rather than a livelock.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

__all__ = ["DelaySpike", "FaultPlan", "FaultInjector", "FaultError",
           "RetryExhausted"]


class FaultError(RuntimeError):
    """Base class for injected-fault failures surfaced by a run."""


class RetryExhausted(FaultError):
    """A packet was retransmitted ``max_retries`` times without an ack.

    Carries enough structure for a sweep to report the failing transfer
    rather than livelocking the run.
    """

    def __init__(self, src: int, dst: int, xfer_id: int, seq: int,
                 attempts: int) -> None:
        self.src = src
        self.dst = dst
        self.xfer_id = xfer_id
        self.seq = seq
        self.attempts = attempts
        super().__init__(
            f"packet {src}->{dst} (xfer {xfer_id}, seq {seq}) unacked "
            f"after {attempts} retransmissions")


@dataclass(frozen=True)
class DelaySpike:
    """A one-off freeze of ``node`` (Afzal-style injected delay).

    Packets that would arrive at ``node`` inside
    ``[start_us, start_us + duration_us)`` are held on the wire until
    the window ends.
    """

    node: int
    start_us: float
    duration_us: float

    def __post_init__(self) -> None:
        # NaN fails every comparison, so these refuse it too.
        if not 0.0 <= self.start_us < math.inf:
            raise ValueError(
                f"start_us must be finite and >= 0, got {self.start_us}")
        if not 0.0 < self.duration_us < math.inf:
            raise ValueError(f"duration_us must be finite and > 0, "
                             f"got {self.duration_us}")

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us


@dataclass(frozen=True)
class FaultPlan:
    """Everything that may go wrong on the wire during one run.

    The default-constructed plan is *null*: nothing misbehaves, and the
    reliability machinery stays completely off, so a run with
    ``FaultPlan()`` is bit-identical to a run with no plan at all.
    """

    #: Per-packet drop probability on the wire (0 disables drops).
    drop_rate: float = 0.0
    #: Restrict drops to these :class:`~repro.network.packet.PacketKind`
    #: values (e.g. ``("credit",)``); ``None`` means every kind.
    drop_kinds: Optional[Tuple[str, ...]] = None
    #: One-off node freezes.
    spikes: Tuple[DelaySpike, ...] = ()
    #: Base retransmission timeout (µs); must exceed the round trip.
    retx_timeout_us: float = 200.0
    #: Exponential backoff factor applied per retransmission.
    retx_backoff: float = 2.0
    #: Retransmissions allowed before :class:`RetryExhausted`.
    max_retries: int = 10

    def __post_init__(self) -> None:
        # Normalise sequence arguments to tuples so the plan is hashable
        # and its asdict() form is canonical for the cache key.
        object.__setattr__(self, "spikes", tuple(self.spikes))
        if self.drop_kinds is not None:
            object.__setattr__(self, "drop_kinds",
                               tuple(sorted(self.drop_kinds)))
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(
                f"drop_rate must be in [0, 1], got {self.drop_rate}")
        if not 0.0 < self.retx_timeout_us < math.inf:
            raise ValueError(f"retx_timeout_us must be finite and > 0, "
                             f"got {self.retx_timeout_us}")
        if not 1.0 <= self.retx_backoff < math.inf:
            raise ValueError(f"retx_backoff must be finite and >= 1, "
                             f"got {self.retx_backoff}")
        if not isinstance(self.max_retries, numbers.Integral) \
                or self.max_retries < 1:
            raise ValueError(f"max_retries must be an integer >= 1, "
                             f"got {self.max_retries!r}")

    @property
    def is_null(self) -> bool:
        """True when nothing can misbehave (the perfectly reliable wire)."""
        return self.drop_rate == 0.0 and not self.spikes

    @property
    def needs_reliability(self) -> bool:
        """True when packets can be *lost* (not merely delayed), which is
        what forces the ack/retransmit protocol on."""
        return self.drop_rate > 0.0

    def with_changes(self, **changes: Any) -> "FaultPlan":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """One-line summary of the active faults."""
        parts = []
        if self.drop_rate:
            kinds = "" if self.drop_kinds is None else \
                f" of {','.join(self.drop_kinds)}"
            parts.append(f"drop={self.drop_rate:g}{kinds}")
        if self.spikes:
            parts.append(f"{len(self.spikes)} spike(s)")
        return " ".join(parts) if parts else "no faults"


class FaultInjector:
    """The per-run realisation of a :class:`FaultPlan`.

    Owns the drop RNG (a ``RandomState`` derived from the run seed, per
    the repo's seed-derivation rule) and decides, packet by packet, what
    the wire does.  All decisions are pure functions of (plan, seed,
    packet order), so reruns are bit-identical.
    """

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        if plan.is_null:
            raise ValueError("a null FaultPlan needs no injector")
        self.plan = plan
        self._rng = np.random.RandomState((seed * 1_000_003 + 0xFA17)
                                          % (2 ** 32))
        #: Packets held by a delay spike (diagnostic).
        self.packets_spiked = 0

    def _droppable(self, packet: "Packet") -> bool:  # noqa: F821
        if self.plan.drop_rate <= 0.0:
            return False
        return self.plan.drop_kinds is None or \
            packet.kind.value in self.plan.drop_kinds

    def transit_delay(self, packet: "Packet", now: float,  # noqa: F821
                      base_latency: float) -> Optional[float]:
        """The packet's transit delay under this plan, or ``None`` if it
        is dropped.

        The drop draw is consumed only for packets the plan can drop, so
        narrowing ``drop_kinds`` does not shift the stream seen by the
        remaining kinds' order.
        """
        if self._droppable(packet) and \
                self._rng.random_sample() < self.plan.drop_rate:
            return None
        delay = base_latency
        for spike in self.plan.spikes:
            if packet.dst != spike.node:
                continue
            arrival = now + delay
            if spike.start_us <= arrival < spike.end_us:
                delay = spike.end_us - now
                self.packets_spiked += 1
        return delay
