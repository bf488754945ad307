"""The simulated client tier: open arrivals from outside the rank set.

Production traffic is an *open system*: requests arrive whether or not
the cluster is keeping up, so a microsecond of overhead becomes
queueing delay and a tail-latency violation rather than a slowdown
factor.  This module generates that traffic deterministically.

The scalability trick is **aggregation**: a population of ``n_users``
independent thin clients, each issuing at rate λ, superposes to a
single Poisson process at rate ``n_users * λ`` — so one seeded stream
stands in for millions of simulated users at a cost proportional to
the *request count*, not the user count.  Each request still carries a
concrete user id drawn from a skewed popularity distribution, so
sharding and hot-key behaviour see the full population.  The bursty
process is a two-state MMPP (Markov-modulated Poisson): dwell times in
a calm and a burst state are exponential, and within each state
arrivals are Poisson at that state's rate, with the state rates chosen
so the *time-averaged* rate still equals the configured offered load.

Determinism contract: ``ClientTier.trace(seed)`` is a pure function of
(tier parameters, seed) — same seed ⇒ bit-identical trace, different
seed ⇒ different trace — which is what lets serving runs share the
RunCache/ResultStore machinery by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Iterator, List, NamedTuple

__all__ = ["Request", "ClientTier", "ARRIVAL_PROCESSES"]

#: Supported arrival processes.
ARRIVAL_PROCESSES = ("poisson", "bursty")

#: The bursty (MMPP) shape: the burst state's rate multiplier and the
#: mean exponential dwell times of the two states.
BURST_RATIO = 4.0
MEAN_BURST_US = 500.0
MEAN_CALM_US = 2000.0

#: Popularity skew: user ``u`` is drawn as
#: ``int(n_users * uniform() ** USER_SKEW)``, so traffic concentrates
#: on low user ids.
USER_SKEW = 2.0

#: The fraction of requests that write.
WRITE_RATIO = 0.1

#: Knuth's multiplicative hash constant; spreads consecutive user ids
#: across the key space while keeping key popularity tied to user
#: popularity (hot users ⇒ hot keys).
_KEY_HASH = 2654435761


class Request(NamedTuple):
    """One client request: arrival offset and what it asks for."""

    #: Arrival time, simulated µs relative to the start of the trace.
    t_us: float
    #: Issuing user id in ``[0, n_users)``.
    user: int
    #: Target key in ``[0, key_space)``.
    key: int
    #: Write (True) or read (False).
    write: bool


@dataclass(frozen=True)
class ClientTier:
    """A seeded population of simulated users and its arrival process.

    ``offered_rps`` is the aggregate offered load (requests per second
    of *simulated* time) across the whole population; ``n_users`` only
    shapes the identity distribution, never the generation cost.  The
    trace ends at ``duration_us`` or after ``max_requests`` arrivals,
    whichever comes first — a finite trace is what guarantees serving
    runs terminate even when the cluster cannot keep up.
    """

    n_users: int
    offered_rps: float
    duration_us: float
    max_requests: int
    arrivals: str = "poisson"
    key_space: int = 4096

    def __post_init__(self) -> None:
        for field in fields(self):  # NaN and inf pass every comparison
            value = getattr(self, field.name)
            if not isinstance(value, str) and not math.isfinite(value):
                raise ValueError(
                    f"{field.name} must be finite, got {value}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if self.offered_rps <= 0:
            raise ValueError(
                f"offered_rps must be > 0, got {self.offered_rps}")
        if self.duration_us <= 0:
            raise ValueError(
                f"duration_us must be > 0, got {self.duration_us}")
        if self.max_requests < 1:
            raise ValueError(
                f"max_requests must be >= 1, got {self.max_requests}")
        if self.arrivals not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"arrivals must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.arrivals!r}")
        if self.key_space < 1:
            raise ValueError(
                f"key_space must be >= 1, got {self.key_space}")

    # -- generation ---------------------------------------------------------
    def trace(self, seed: int) -> List[Request]:
        """The full arrival trace for one run, sorted by arrival time.

        Each arrival's user, key and direction are drawn right after
        its time, from the same stream.  The loop binds what it reads
        as locals and builds each tuple with ``Request._make``: a trace
        runs to a million requests, and a keyword call to the class
        costs twice as much.  A Poisson inter-arrival is drawn in the
        loop as ``-log(1.0 - random()) / rate``, the formula of
        ``random.expovariate``, so the stream is the one it draws."""
        rng = random.Random(seed * 1_000_003 + 0xC11E47)
        out: List[Request] = []
        append, make, draw = out.append, Request._make, rng.random
        n_users, last_user = self.n_users, self.n_users - 1
        skew, key_space = USER_SKEW, self.key_space
        write_ratio, max_requests = WRITE_RATIO, self.max_requests
        if self.arrivals == "poisson":
            log, rate = math.log, self.offered_rps / 1e6
            duration_us, t_us = self.duration_us, 0.0
            while True:
                t_us += -log(1.0 - draw()) / rate
                if t_us > duration_us:
                    break
                user = min(last_user, int(n_users * draw() ** skew))
                append(make((t_us, user,
                             (user * _KEY_HASH + 97) % key_space,
                             draw() < write_ratio)))
                if len(out) == max_requests:
                    break
            return out
        for t_us in self._bursty_arrivals(rng):
            user = min(last_user, int(n_users * draw() ** skew))
            append(make((t_us, user, (user * _KEY_HASH + 97) % key_space,
                         draw() < write_ratio)))
            if len(out) == max_requests:
                break
        return out

    def _bursty_arrivals(self, rng: random.Random) -> Iterator[float]:
        """Two-state MMPP with the configured time-averaged rate.

        The calm-state rate is solved so that, weighted by the mean
        dwell fractions, the long-run rate equals ``offered_rps``; the
        burst state runs ``BURST_RATIO`` times hotter.  Within a state
        arrivals are Poisson, so redrawing the interarrival at a state
        boundary is exact (memorylessness), not an approximation.
        """
        burst_fraction = MEAN_BURST_US / (MEAN_BURST_US + MEAN_CALM_US)
        calm_rate = (self.offered_rps / 1e6) / (
            (1.0 - burst_fraction) + BURST_RATIO * burst_fraction)
        rates = {"calm": calm_rate, "burst": calm_rate * BURST_RATIO}
        dwells = {"calm": MEAN_CALM_US, "burst": MEAN_BURST_US}
        flip = {"calm": "burst", "burst": "calm"}

        state = "calm"
        t_us = 0.0
        state_end = rng.expovariate(1.0 / dwells[state])
        while True:
            arrival = t_us + rng.expovariate(rates[state])
            if arrival > state_end:
                # The state flipped before this draw would have landed;
                # restart from the boundary in the new state.
                t_us = state_end
                state = flip[state]
                state_end = t_us + rng.expovariate(1.0 / dwells[state])
                if t_us > self.duration_us:
                    return
                continue
            t_us = arrival
            if t_us > self.duration_us:
                return
            yield t_us

    def describe(self) -> str:
        """One-line summary for reports."""
        return (f"{self.arrivals} arrivals, {self.n_users} users, "
                f"{self.offered_rps:g} req/s offered, "
                f"{self.duration_us:g}us window")
