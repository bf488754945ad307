"""Longest-path replay of a recorded DAG under re-dialed parameters.

:func:`predict_runtime` re-evaluates one recorded run at a new
:class:`~repro.am.tuning.TuningKnobs` point in a single O(events)
forward scan of the graph's compiled program — the recorded order is a
topological order of the happens-before DAG (:mod:`repro.cost.graph`),
so each event's predicted completion is a max over its already-computed
predecessors plus its re-dialed edge costs:

* **program order**: the previous event on the same rank, plus the
  dial-independent *busy* compute between them (recorded elapsed time
  minus blocked time minus the recorded charge, clamped at zero);
* **message edges**: a reception waits for its sender's NIC delivery
  — the per-fragment transmit chain (DMA, injection, gap stall) of
  :class:`~repro.am.tuning.DialedCost` plus the wire;
* **window credits**: a credit-taking send with a full window waits
  for the earliest credit return among its outstanding transfers —
  a reply's delivery, or a one-way's NIC CREDIT round (delivery plus
  one more wire leg).

Every edge weight is linear in each dial and the scan only adds, takes
maxima and (credits) one minimum, so runtime is piecewise-linear in
every dial: :func:`predict_sweep` evaluates it over a grid, and
:func:`latency_tolerance` bisects it for the 2x-slowdown crossing.
:func:`lp_bound` gives the complementary LP-style lower bound — the
most-loaded resource (host or NIC transmit context) can never finish
faster than its summed work.

What replays exactly, what is approximated, and what is refused is
documented in ARCHITECTURE.md section 15; graphs from unsupported
regimes raise :class:`UnsupportedGraphError` here, and recording
refuses them up front in ``Cluster.run``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.am.tuning import DialedCost, TuningKnobs
from repro.cost.graph import MARK, RECV, SEND, CostGraph
from repro.harness.sweeps import MACHINE_DIALS, SweepResult, dial_named

__all__ = ["UnsupportedGraphError", "check_replayable", "predict_runtime",
           "PredictedPoint", "predict_sweep", "latency_tolerance", "lp_bound"]


class UnsupportedGraphError(ValueError):
    """The dial point or graph is outside the replay model's domain."""


def check_replayable(knobs: TuningKnobs, faults=None, app=None) -> None:
    """Refuse what the replay cannot reproduce: it covers a closed app on
    the reliable wire with an undialed receive context.  Recording
    (``Cluster.run(recorder=)``) and every predicted dial point ask."""
    if getattr(app, "open_system", False):
        raise UnsupportedGraphError(
            f"simcost cannot record open-system app {app.name!r}: "
            f"arrivals from outside the rank set have no closed "
            f"dependency graph to replay")
    if faults is not None:
        raise UnsupportedGraphError(
            "simcost requires a reliable fabric (no fault plan)")
    if knobs.delta_occ > 0:
        raise UnsupportedGraphError(
            "dialed occupancy (delta_occ > 0) serialises the receive "
            "context; simcost cannot replay it — simulate instead")


def _check_supported(graph: CostGraph, knobs: TuningKnobs) -> None:
    check_replayable(knobs)
    if graph.knobs.delta_occ > 0:
        raise UnsupportedGraphError(
            "graph was recorded with dialed occupancy; re-record at "
            "delta_occ = 0")


def predict_runtime(graph: CostGraph,
                    knobs: Optional[TuningKnobs] = None) -> float:
    """Predicted runtime (µs) of the recorded run at a new dial point.

    ``knobs=None`` replays the graph at its own recorded dials — the
    self-check that the model reproduces the measured
    ``graph.runtime_us``.
    """
    return _replayer(graph)(knobs)


def _replayer(graph: CostGraph):
    """:func:`predict_runtime` of ``graph``, for a sweep or a search:
    the program's arrays are taken as lists once, and each distinct
    edge-cost point is scanned once.  A point is what the scan reads of
    the dials -- the send and receive charges, the wire, the short
    cycle and the cycle of each fragment size in the graph -- so a dial
    value that moves none of them (the bulk dial, on a graph with no
    bulk traffic) costs no second scan.  Both go with the function."""
    program = graph.program
    compiled = (graph.n_nodes, [column.tolist() for column in program[:4]],
                *(column.tolist() for column in program[4:7]), *program[7:])
    sizes = sorted({size for transfer in program.fragments
                    for size in transfer})
    runtimes: Dict[tuple, float] = {}

    def replay(knobs: Optional[TuningKnobs]) -> float:
        knobs = knobs if knobs is not None else graph.knobs
        _check_supported(graph, knobs)
        cost = DialedCost(graph.params, knobs)
        point = (cost.send_charge, cost.recv_charge, cost.wire,
                 cost.tx_cycle(0, False),
                 tuple(cost.tx_cycle(size, True) for size in sizes))
        runtime = runtimes.get(point)
        if runtime is None:
            runtime = runtimes[point] = _scan(compiled, sizes, point)
        return runtime
    return replay


def _scan(compiled: tuple, sizes: List[int], point: tuple) -> float:
    """One forward scan of a compiled program at one edge-cost point."""
    n_nodes, rows, back_of, returns_of, frag_of, fragments, n_sends, \
        n_windows = compiled
    send_charge, recv_charge, wire, (short_pre, short_stall), cycles = point
    cycle_of = dict(zip(sizes, cycles))

    # Per rank: predicted completion of its last event and its
    # transmit context's free time.  By the program's dense slots:
    # deliveries, and a min-heap of known credit returns per window.
    clock = [0.0] * n_nodes
    nic_free = [0.0] * n_nodes
    delivery = [0.0] * n_sends
    returned: List[List[float]] = [[] for _ in range(n_windows)]
    sent = 0
    t_start = t_stop = None

    for tag, rank, busy, a in zip(*rows):
        ready = clock[rank] + busy

        if tag == RECV:
            if a >= 0:
                arrived = delivery[a]
                if arrived > ready:
                    ready = arrived
            clock[rank] = ready + recv_charge
            continue

        if tag == MARK:
            clock[rank] = ready
            if a == 1:
                t_start = ready
            elif a == 2:
                t_stop = ready
            continue

        # -- send -----------------------------------------------------------
        if a >= 0:
            # The window is full: wait for its earliest *known* credit
            # return.  Returns recorded after this point in the scan
            # are treated as later — consistent with the recorded
            # schedule, where the freeing return had already happened.
            freed = heappop(returned[a])
            if freed > ready:
                ready = freed
        done = ready + send_charge
        clock[rank] = done

        # NIC transmit chain: fragments enter the tx queue at `done`.
        free = nic_free[rank]
        frag = frag_of[sent]
        if frag < 0:
            inject = (free if free > done else done) + short_pre
            free = inject + short_stall
            arrival = inject + wire
        else:
            arrival = done
            for size in fragments[frag]:
                pre, stall = cycle_of[size]
                inject = max(done, free) + pre
                free = inject + stall
                arrival = inject + wire
        nic_free[rank] = free

        delivery[sent] = arrival
        returns = returns_of[sent]
        if returns == 1:
            # A reply's arrival returns the request's window credit.
            heappush(returned[back_of[sent]], arrival)
        elif returns == 2:
            # NIC CREDIT: generated at delivery, one more wire leg back
            # (CREDITs bypass the transmit gap, not the delay queue).
            heappush(returned[back_of[sent]], arrival + wire)
        sent += 1

    if t_start is None or t_stop is None:
        raise UnsupportedGraphError(
            "graph has no measurement markers; was the run recorded "
            "through Cluster.run?")
    return t_stop - t_start


@dataclass
class PredictedPoint:
    """One predicted configuration of a sweep (no simulation behind it):
    a :class:`~repro.harness.sweeps.SweepResult` reads it as it reads a
    completed simulated point."""

    value: float
    knobs: TuningKnobs
    runtime_us: float

    @property
    def completed(self) -> bool:
        return True


def predict_sweep(graph: CostGraph, parameter: str,
                  values: Optional[Sequence[float]] = None
                  ) -> SweepResult:
    """Predict a whole dial sweep from one recorded graph.

    The analytical counterpart of :func:`repro.harness.sweeps.
    run_sweep`: ``parameter`` (one of :data:`~repro.harness.sweeps.
    MACHINE_DIALS`) and ``values`` mean exactly what they mean there
    (absolute targets, default the row's grid; first value is the
    baseline), dialed by the same row against the graph's recorded
    params.  The result is a ``SweepResult`` of
    :class:`PredictedPoint` s, read like a simulated one.
    """
    dial = dial_named(parameter, MACHINE_DIALS)
    values = dial.grid if values is None else values
    if not values:
        raise ValueError("values is empty: a predicted sweep needs at "
                         "least its baseline value")
    sweep = SweepResult(app_name=graph.app_name,
                        n_nodes=graph.n_nodes, parameter=parameter)
    replay = _replayer(graph)
    for value in values:
        knobs = dial.knobs(value, graph.params)
        sweep.points.append(PredictedPoint(
            value=value, knobs=knobs, runtime_us=replay(knobs)))
    return sweep


#: Relative precision of :func:`latency_tolerance`'s bisection.
CROSSING_TOL = 0.01
#: The largest dial value :func:`latency_tolerance` searches to.
CROSSING_MAX = 100_000.0


def latency_tolerance(graph: CostGraph, parameter: str,
                      threshold: float = 2.0) -> Optional[float]:
    """The dial value at which predicted slowdown crosses ``threshold``.

    The per-app "latency tolerance" metric (for any of the four dials,
    despite the name): how far the dial can be turned before the
    application slows down by ``threshold``x.  Slowdown is
    piecewise-linear and monotone in each dial, so the crossing is
    found by doubling + bisection to relative precision
    :data:`CROSSING_TOL`.  Returns ``None`` when the app never crosses
    within :data:`CROSSING_MAX` (for ``bulk_mb_s``, when it still holds
    at 1/1000 of the baseline bandwidth — effectively
    bandwidth-insensitive).  ``parameter`` is one of
    :data:`~repro.harness.sweeps.MACHINE_DIALS`: only those have a
    baseline to cross from.  A non-finite ``threshold`` raises
    ``ValueError``: the crossing would be meaningless.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, not {threshold!r}")
    dial = dial_named(parameter, MACHINE_DIALS)
    base_value = dial.baseline(graph.params)
    replay = _replayer(graph)

    def runtime(value: float) -> float:
        return replay(dial.knobs(value, graph.params))

    base_runtime = runtime(base_value)
    if threshold <= 1.0:
        return base_value  # the baseline's own slowdown is exactly 1.0

    def slowdown(value: float) -> float:
        return runtime(value) / base_runtime

    if dial.grid[-1] < dial.grid[0]:
        # A dial whose grid falls (bandwidth) slows the machine as it
        # *drops*: search downward, from the first dialed value (hi =
        # crossing side, small mb).
        hi = base_value / 2.0
        floor = base_value / 1000.0
        while slowdown(hi) < threshold:
            hi /= 2.0
            if hi < floor:
                return None
        lo = hi * 2.0
        while (lo - hi) > CROSSING_TOL * max(1e-9, lo):
            mid = (lo + hi) / 2.0
            if slowdown(mid) >= threshold:
                hi = mid
            else:
                lo = mid
        return hi

    hi = max(base_value, 1.0)
    # At hi == base_value the answer is known (1.0 < threshold).
    while hi == base_value or slowdown(hi) < threshold:
        hi *= 2.0
        if hi > CROSSING_MAX:
            return None
    lo = max(base_value, hi / 2.0)
    while (hi - lo) > CROSSING_TOL * max(1e-9, hi):
        mid = (lo + hi) / 2.0
        if slowdown(mid) >= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def lp_bound(graph: CostGraph,
             knobs: Optional[TuningKnobs] = None) -> float:
    """LP-style lower bound on runtime at a dial point (µs).

    Relaxes all ordering constraints and keeps only per-resource work
    conservation over the measured region: every rank's host must
    execute its busy compute plus its per-message charges, and every
    rank's NIC transmit context must execute its injection cycles.
    The longest-path prediction always dominates this bound; a large
    gap between them means the app hides communication well (the
    dial's cost overlaps compute), a small gap means it is
    resource-bound on that dial.
    """
    knobs = knobs if knobs is not None else graph.knobs
    _check_supported(graph, knobs)
    cost = DialedCost(graph.params, knobs)
    program, t = graph.program, graph.rows["t"]
    # Recorded bounds of the measured region (label codes 1 and 2).
    marks = dict(zip(program.a[program.tag == MARK].tolist(),
                     t[program.tag == MARK].tolist()))
    if 1 not in marks or 2 not in marks:
        raise UnsupportedGraphError("graph has no measurement markers")
    # Each send's NIC work: its fragments' cycles, or (frag -1, the
    # last entry) a short packet's.
    nic_work = np.zeros(len(t))
    nic_work[program.tag == SEND] = np.array(
        [sum(sum(cost.tx_cycle(size, True)) for size in sizes)
         for sizes in program.fragments]
        + [sum(cost.tx_cycle(0, False))])[program.frag]

    host: Dict[int, float] = {}
    nic: Dict[int, float] = {}
    inside = (marks[1] < t) & (t <= marks[2])
    for tag, rank, busy, work in zip(*(column[inside].tolist() for column in (
            program.tag, program.rank, program.busy, nic_work))):
        host[rank] = host.get(rank, 0.0) + busy
        if tag == RECV:
            host[rank] += cost.recv_charge
        elif tag == SEND:
            host[rank] += cost.send_charge
            nic[rank] = nic.get(rank, 0.0) + work
    bounds = list(host.values()) + list(nic.values())
    return max(bounds) if bounds else 0.0
