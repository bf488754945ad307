"""Closed-form LogGP cost estimates for every registered algorithm.

The estimates are built from what the *simulator* charges per message,
:class:`~repro.am.tuning.DialedCost` -- the one definition the AM layer
and the NIC read -- composed point to point, the way Barchet-Estefanel
& Mounie build collective models from pLogP costs:

* one message takes its send charge, its transmit chain up to the
  injection of its last fragment (every earlier fragment's full
  ``tx_cycle``, then the last one's DMA; fragments as the AM layer cuts
  them), the wire and its receive charge; a short packet pays no ``G``
  whatever its declared size;
* back-to-back injections from one NIC are serialised by the sum of
  the message's fragment cycles;
* every request is acknowledged (a send charge at the receiver, a
  receive charge back on the requester).

These are ranking models: they only need to order the two candidate
schedules of each primitive Table 8 grades correctly (Barchet-Estefanel
& Mounie's "fast tuning" observation), not predict absolute runtimes.
Table 8 (:func:`repro.harness.experiments.model_picks`) grades
:func:`predicted_ranking`'s first pick against the measured winner.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.am.tuning import DialedCost, TuningKnobs
from repro.coll.algorithms import (CHAIN_SEGMENT_BYTES, algorithms_for)
from repro.network.loggp import LogGPParams
from repro.network.packet import fragment_sizes

__all__ = ["estimate_cost", "predicted_ranking"]


def _chain(cost: DialedCost, nbytes: float,
           bulk: bool) -> Tuple[float, float]:
    """One message through its sender's transmit context: the time until
    its last fragment is injected, and the context's whole occupancy."""
    busy = 0.0
    for size in fragment_sizes(int(nbytes)) if bulk else (0,):
        pre, stall = cost.tx_cycle(size, bulk)
        injected = busy + pre
        busy = injected + stall
    return injected, busy


def _hop(cost: DialedCost, nbytes: float, bulk: bool) -> float:
    """End-to-end time of one message: send charge, transmit chain, wire,
    receive charge."""
    return (cost.send_charge + _chain(cost, nbytes, bulk)[0] + cost.wire
            + cost.recv_charge)


def _inject(cost: DialedCost, nbytes: float, bulk: bool) -> float:
    """NIC occupancy of one injection (serialises back-to-back sends)."""
    return _chain(cost, nbytes, bulk)[1]


def _arrive(cost: DialedCost, nbytes: float, bulk: bool) -> float:
    """Per-arrival time at a root that P - 1 messages converge on."""
    return max(_inject(cost, 0, False), cost.recv_charge
               + (_inject(cost, nbytes, True) if bulk else 0.0))


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
    ``broadcast``/``allreduce``, the per-rank block for
    ``gather``/``allgather``/``alltoall``.
    """
    cost = DialedCost(params,
                      knobs if knobs is not None else TuningKnobs())
    n = max(1, int(n_ranks))
    if n == 1:
        return 0.0
    rounds = 0
    while (1 << rounds) < n:
        rounds += 1
    ack = cost.send_charge + cost.recv_charge

    if primitive == "barrier":
        if algo == "dissemination":
            # Each round: send one token, absorb the partner's (plus
            # both acks' host time).
            return rounds * (_hop(cost, 0, False) + ack)

    if primitive == "broadcast":
        if algo == "binomial":
            return rounds * (_hop(cost, nbytes, bulk)
                             + _inject(cost, nbytes, bulk))
        if algo == "chain":
            nseg = _segments(nbytes, bulk)
            seg = nbytes / nseg
            # Pipeline fill (P - 2 forwards) plus nseg segment slots.
            return (n - 2 + nseg) * (_hop(cost, seg, bulk)
                                     + _inject(cost, seg, bulk))

    if primitive == "allreduce":
        if algo == "binomial":
            return 2 * rounds * (_hop(cost, nbytes, bulk) + ack)
        if algo == "ring":
            chunk = nbytes / n
            return 2 * (n - 1) * (_hop(cost, chunk, bulk) + ack)

    if primitive == "gather":
        if algo == "flat":
            # One hop, but the root serialises P - 1 arrivals.
            return (_hop(cost, nbytes, bulk)
                    + (n - 2) * _arrive(cost, nbytes, bulk))

    if primitive == "allgather":
        if algo == "ring":
            return (n - 1) * (_hop(cost, nbytes, bulk)
                              + _inject(cost, nbytes, bulk))
        if algo == "doubling":
            total = 0.0
            have = 1
            while have < n:
                cnt = min(have, n - have)
                total += _hop(cost, nbytes * cnt, bulk) + ack
                have += cnt
            return total

    if primitive == "alltoall":
        if algo == "flat":
            # Burst P - 1 sends (gap/DMA-serialised), absorb P - 1
            # arrivals, then the completion barrier.
            burst = (n - 1) * max(_inject(cost, nbytes, bulk),
                                  cost.recv_charge + ack)
            barrier_cost = rounds * (_hop(cost, 0, False) + ack)
            return burst + _hop(cost, nbytes, bulk) + barrier_cost
        if algo == "bruck":
            # ceil(log2 P) rounds, each moving ~P/2 aggregated blocks.
            total = 0.0
            for k in range(rounds):
                count = sum(1 for j in range(n) if j & (1 << k))
                total += _hop(cost, nbytes * count, bulk) + ack
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
