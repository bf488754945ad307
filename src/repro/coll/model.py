"""Closed-form LogGP cost estimates for every registered algorithm.

The estimates mirror what the *simulator* charges, not an idealised
machine: a short packet costs ``o_s + L + o_r`` end to end regardless of
its declared size (the NIC only pays ``G`` per byte for bulk fragments),
successive injections from one NIC are ``g`` apart, and every request is
acknowledged (the ack's ``o_r`` lands back on the requester).  All
parameters come from the machine's live :class:`LogGPParams` with the
run's :class:`TuningKnobs` applied, so the model's picks track dialed
machines exactly the way the measurements do.

These are ranking models: they only need to order the 2-3 candidate
schedules per primitive correctly (Barchet-Estefanel & Mounie's "fast
tuning" observation), not predict absolute runtimes.  Table 8
(:func:`repro.harness.experiments.model_picks`) grades
:func:`predicted_ranking`'s first pick against the measured winner.
"""

from __future__ import annotations

from typing import Optional

from repro.am.tuning import TuningKnobs
from repro.coll.algorithms import (CHAIN_SEGMENT_BYTES, algorithms_for)
from repro.network.loggp import LogGPParams

__all__ = ["estimate_cost", "predicted_ranking"]


def _hop(p: LogGPParams, nbytes: float, bulk: bool) -> float:
    """End-to-end time of one message: send overhead, wire, receive."""
    wire = nbytes * p.Gap if bulk else 0.0
    return p.send_overhead + p.latency + wire + p.recv_overhead


def _inject(p: LogGPParams, nbytes: float, bulk: bool) -> float:
    """NIC occupancy of one injection (serialises back-to-back sends)."""
    dma = nbytes * p.Gap if bulk else 0.0
    return max(p.gap, dma)


def _segments(nbytes: float, bulk: bool) -> int:
    if not bulk:
        return 1
    return max(1, -(-int(nbytes) // CHAIN_SEGMENT_BYTES))


def estimate_cost(primitive: str, algo: str, n_ranks: int,
                  nbytes: float, params: LogGPParams,
                  knobs: Optional[TuningKnobs] = None,
                  bulk: bool = False) -> float:
    """Predicted completion time (µs) of one collective invocation.

    ``nbytes`` follows the dispatch convention: the whole value for
    ``broadcast``/``reduce``/``allreduce``, the per-rank block for
    ``gather``/``scatter``/``allgather``/``alltoall``.
    """
    p = knobs.effective(params) if knobs is not None else params
    n = max(1, int(n_ranks))
    if n == 1:
        return 0.0
    rounds = 0
    while (1 << rounds) < n:
        rounds += 1
    ack = p.send_overhead + p.recv_overhead

    if primitive == "barrier":
        if algo == "dissemination":
            # Each round: send one token, absorb the partner's (plus
            # both acks' host time).
            return rounds * (_hop(p, 0, False) + ack)
        if algo == "tree":
            # Up sweep + down sweep, each ceil(log2 P) hops deep.
            return 2 * rounds * _hop(p, 0, False) + rounds * ack

    if primitive == "broadcast":
        if algo == "binomial":
            return rounds * (_hop(p, nbytes, bulk)
                             + _inject(p, nbytes, bulk))
        if algo == "chain":
            nseg = _segments(nbytes, bulk)
            seg = nbytes / nseg
            # Pipeline fill (P - 2 forwards) plus nseg segment slots.
            return (n - 2 + nseg) * (_hop(p, seg, bulk)
                                     + _inject(p, seg, bulk))

    if primitive == "reduce":
        if algo == "binomial":
            return rounds * (_hop(p, nbytes, bulk) + ack)
        if algo == "flat":
            # One hop, but the root serialises P - 1 arrivals.
            arrive = max(p.gap, p.recv_overhead
                         + (nbytes * p.Gap if bulk else 0.0))
            return _hop(p, nbytes, bulk) + (n - 2) * arrive

    if primitive == "allreduce":
        if algo == "binomial":
            return 2 * rounds * (_hop(p, nbytes, bulk) + ack)
        if algo == "ring":
            chunk = nbytes / n
            return 2 * (n - 1) * (_hop(p, chunk, bulk) + ack)

    if primitive in ("gather", "scatter"):
        arrive = max(p.gap, p.recv_overhead
                     + (nbytes * p.Gap if bulk else 0.0))
        if algo == "flat":
            return _hop(p, nbytes, bulk) + (n - 2) * arrive
        if algo == "binomial":
            # Hop k of the critical path carries a 2^k-block message.
            total = 0.0
            for k in range(rounds):
                total += _hop(p, nbytes * (1 << k), bulk) + ack
            return total

    if primitive == "allgather":
        if algo == "ring":
            return (n - 1) * (_hop(p, nbytes, bulk)
                              + _inject(p, nbytes, bulk))
        if algo == "doubling":
            total = 0.0
            have = 1
            while have < n:
                cnt = min(have, n - have)
                total += _hop(p, nbytes * cnt, bulk) + ack
                have += cnt
            return total

    if primitive == "alltoall":
        if algo == "flat":
            # Burst P - 1 sends (gap/DMA-serialised), absorb P - 1
            # arrivals, then the completion barrier.
            burst = (n - 1) * max(_inject(p, nbytes, bulk),
                                  p.recv_overhead + ack)
            barrier_cost = rounds * (_hop(p, 0, False) + ack)
            return burst + _hop(p, nbytes, bulk) + barrier_cost
        if algo == "bruck":
            # ceil(log2 P) rounds, each moving ~P/2 aggregated blocks.
            total = 0.0
            for k in range(rounds):
                count = sum(1 for j in range(n) if j & (1 << k))
                total += _hop(p, nbytes * count, bulk) + ack
            return total

    raise KeyError(f"no cost model for {primitive}/{algo}")


def predicted_ranking(primitive: str, n_ranks: int, nbytes: float,
                      params: LogGPParams,
                      knobs: Optional[TuningKnobs] = None,
                      bulk: bool = False) -> list:
    """(cost, algo) pairs for every registered algorithm, cheapest
    first; ties break lexicographically (deterministic on every rank)."""
    pairs = [(estimate_cost(primitive, algo, n_ranks, nbytes, params,
                            knobs=knobs, bulk=bulk), algo)
             for algo in algorithms_for(primitive)]
    return sorted(pairs)
