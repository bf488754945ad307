"""LogGP parameter sweeps (the engine behind Figures 5-8).

A sweep runs one application on a sequence of machine configurations
that differ in exactly one dial, and reports the slowdown of each point
relative to the sweep's own baseline (first point), which is how the
paper normalises its figures.

Runs that end in livelock (Barnes under heavy overhead) or exceed the
configured simulated-time budget are recorded as ``N/A`` points with
``slowdown = None``, mirroring the paper's N/A entries in Table 5.

It is also the one table of *dial semantics*: :data:`DIALS` has a row
per named dial — what it moves, its axis label, the paper's grid for it
and the reduced grid the smoke reports sweep — and every sweep, campaign,
surface and prediction reads that row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.am.tuning import TuningKnobs
from repro.apps.base import Application
from repro.cluster.machine import Cluster, RunResult
from repro.harness.parallel import (FAILURE_CATEGORIES, Plan, PointTask,
                                    SweepPoint, study)
from repro.harness.report import ascii_plot
from repro.network.faults import DelaySpike, FaultPlan
from repro.network.loggp import LogGPParams

__all__ = ["SweepPoint", "SweepResult", "SensitivityFigure",
           "FAILURE_CATEGORIES", "Dial", "DIALS", "MACHINE_DIALS",
           "dial_named", "sweep_tasks", "run_sweep", "spike_decay_sweep",
           "NO_SPIKE", "collective_sweep", "measure_algorithms"]


@dataclass(frozen=True)
class Dial:
    """One dial a sweep can turn: its name, what it moves, where the
    paper put it.

    ``turn(value, app, params, knobs, faults)`` is the point's
    ``(app, knobs, faults)`` with the dial at ``value`` on the baseline
    machine ``params``; whatever the dial does not move stays as given.
    A row that lands on one knob field (:meth:`of_knob`) moves that
    knob and nothing else, which is what lets :meth:`knobs` answer
    without an application.
    """

    name: str
    #: Axis label of a figure over this dial.
    label: str
    #: The paper's grid of dialed values, baseline first.
    grid: Tuple[float, ...]
    turn: Callable[..., Tuple[Any, TuningKnobs, Optional[FaultPlan]]]
    #: The grid the reduced EXPERIMENTS report and the simcost
    #: validation sweep: small enough to simulate in CI, wide enough to
    #: span the paper's dynamic range.  None: no report sweeps the dial.
    reduced: Optional[Tuple[float, ...]] = None
    #: The :class:`TuningKnobs` field an *added* amount lands on.
    knob_field: Optional[str] = None
    #: The dial's absolute value on the undialed machine — only the
    #: paper's four dials have one (:data:`MACHINE_DIALS`).
    baseline: Optional[Callable[[LogGPParams], float]] = None

    @classmethod
    def of_knob(cls, name: str, label: str, grid: Tuple[float, ...],
                knob_field: str,
                added: Callable[[float, LogGPParams], float],
                **row: Any) -> "Dial":
        """A dial over one knob: dialed values are *absolute* targets,
        and ``added(value, params)`` is how much more than the baseline
        machine has that is — the apparatus can only add.  A non-finite
        value is refused by the dial's name: ``max(0.0, nan)`` is
        ``0.0``, so a NaN would otherwise run the baseline machine."""
        def turn(value, app, params, knobs, faults):
            if not math.isfinite(value):
                raise ValueError(
                    f"{name} dial value must be finite, got {value}")
            return (app, knobs.with_changes(
                **{knob_field: added(value, params)}), faults)
        return cls(name, label, grid, turn, knob_field=knob_field, **row)

    def knobs(self, value: float, params: LogGPParams,
              knobs: Optional[TuningKnobs] = None) -> TuningKnobs:
        """``knobs`` (default: none turned) with the dial at ``value`` on
        the baseline machine ``params``."""
        knobs = knobs if knobs is not None else TuningKnobs()
        if self.knob_field is None:
            return knobs
        return self.turn(value, None, params, knobs, None)[1]


#: Every named dial, by name.  The first four are the paper's apparatus
#: (Figures 5-8, in the paper's order).
DIALS: Dict[str, Dial] = {dial.name: dial for dial in (
    Dial.of_knob(
        "overhead", "overhead (us)",
        (2.9, 3.9, 4.9, 6.9, 7.9, 13.0, 23.0, 53.0, 103.0), "delta_o",
        lambda o, params: max(0.0, o - params.overhead),
        reduced=(2.9, 12.9, 52.9, 102.9),
        baseline=lambda params: params.overhead),
    Dial.of_knob(
        "gap", "gap (us)",
        (5.8, 8.0, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0), "delta_g",
        lambda g, params: max(0.0, g - params.gap),
        reduced=(5.8, 15.0, 55.0, 105.0),
        baseline=lambda params: params.gap),
    Dial.of_knob(
        "latency", "latency (us)",
        (5.0, 7.5, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0), "delta_L",
        lambda L, params: max(0.0, L - params.latency),
        reduced=(5.0, 15.0, 55.0, 105.0),
        baseline=lambda params: params.latency),
    # Dialed in MB/s, not us/byte: the machine slows as the value
    # *falls* along the grid, and asking for more bandwidth than the
    # baseline has yields the baseline.
    Dial.of_knob(
        "bulk_mb_s", "bulk bandwidth (MB/s)",
        (38.0, 30.0, 25.0, 20.0, 15.0, 10.0, 5.5, 3.0, 1.0), "delta_G",
        lambda mb, params: TuningKnobs.bulk_bandwidth(mb, params).delta_G,
        reduced=(38.0, 15.0, 10.0, 5.5, 1.0),
        baseline=lambda params: 1.0 / params.Gap),
    # The Flash study's parameter (Section 6), not one of the paper's
    # four: LogGP has no occupancy term, so there is no baseline to
    # subtract and the dialed value is the added amount.
    Dial.of_knob(
        "occupancy", "NIC occupancy (us)", (0.0, 10.0, 25.0, 50.0),
        "delta_occ", lambda occ, _params: occ),
    # Per-packet drop probability of the fault plan every point runs
    # under (Figure 9); the machine dials stay where they are.  Rate
    # 0.0 on no plan is a null plan, and a null plan is no plan: Cluster
    # normalises it away, so the baseline point is bit-identical to, and
    # keyed as, the fault-free run.
    Dial("drop_rate", "drop rate", (0.0, 0.001, 0.005, 0.01, 0.02, 0.05),
         lambda rate, app, params, knobs, faults: (
             app, knobs, (faults if faults is not None
                          else FaultPlan()).with_changes(drop_rate=rate)),
         reduced=(0.0, 0.005, 0.02)),
    # Requests/s of simulated time offered to an open-system serving
    # app (Figure 11): comfortably underloaded to past saturation for
    # the default scenario.  The rate is a constructor knob of the app,
    # hence part of its fingerprint; closed apps have no such knob.
    Dial("offered_rps", "offered load (req/s)",
         (50_000.0, 100_000.0, 200_000.0, 400_000.0, 800_000.0,
          1_600_000.0),
         lambda rps, app, params, knobs, faults: (
             app.with_changes(offered_rps=rps), knobs, faults)),
)}

#: The four machine dials of the paper's apparatus: the rows that have a
#: baseline, i.e. the ones a recorded run can be re-dialed along.
MACHINE_DIALS = tuple(name for name, dial in DIALS.items()
                      if dial.baseline is not None)


def dial_named(dial: Union[str, Dial],
               among: Sequence[str] = tuple(DIALS)) -> Dial:
    """The row called ``dial`` (``among`` names the rows allowed); a
    caller's own :class:`Dial` is itself."""
    if isinstance(dial, Dial):
        return dial
    if dial not in among:
        raise ValueError(
            f"parameter must be one of {tuple(among)}, got {dial!r}")
    return DIALS[dial]


@dataclass
class SweepResult:
    """A full sweep of one application over one dial."""

    app_name: str
    n_nodes: int
    parameter: str  # "overhead" | "gap" | "latency" | "bulk_mb_s"
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def baseline(self) -> SweepPoint:
        return self.points[0]

    def slowdowns(self) -> List[Optional[float]]:
        """Per-point slowdown vs the sweep baseline (None for N/A)."""
        base = self.baseline.runtime_us
        if base is None:
            raise RuntimeError(
                f"{self.app_name}: baseline run did not complete")
        return [p.runtime_us / base if p.completed else None
                for p in self.points]

    def values(self) -> List[float]:
        """The dialed parameter values, in sweep order."""
        return [p.value for p in self.points]

    def series(self) -> List[tuple]:
        """(value, slowdown) pairs for completed points."""
        return [(point.value, slowdown) for point, slowdown
                in zip(self.points, self.slowdowns())
                if slowdown is not None]


@dataclass
class SensitivityFigure:
    """One sensitivity figure: a sweep per application."""

    title: str
    x_label: str
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)

    @staticmethod
    def _series(sweep: SweepResult) -> List[tuple]:
        """``sweep.series()``, empty where the baseline is N/A: with
        nothing to normalise by, every point is N/A."""
        return sweep.series() if sweep.baseline.completed else []

    def series(self) -> Dict[str, List[tuple]]:
        """Per-application (value, slowdown) series."""
        return {name: self._series(sweep)
                for name, sweep in self.sweeps.items()}

    def max_slowdown(self, app_name: str) -> Optional[float]:
        """Largest completed slowdown for one application (None when
        every point, or the baseline, is N/A)."""
        series = self._series(self.sweeps[app_name])
        return max(y for _x, y in series) if series else None

    def render(self) -> str:
        """ASCII plot of every application's slowdown curve."""
        return ascii_plot(self.series(), title=self.title,
                          x_label=self.x_label, y_label="slowdown")


def sweep_tasks(app: Any, n_nodes: int, dial: Dial,
                values: Sequence[float],
                params: Optional[LogGPParams] = None,
                knobs: Optional[TuningKnobs] = None,
                faults: Optional[FaultPlan] = None,
                **cluster) -> List[PointTask]:
    """One task per dialed value: the expansion every sweep and every
    campaign series goes through.  ``app``, ``knobs`` and ``faults``
    are the setting ``dial`` turns from; ``cluster`` is whatever else
    the points' :class:`Cluster` s share (seed, limits, window,
    ``sanitize``)."""
    params = params if params is not None else LogGPParams.berkeley_now()
    knobs = knobs if knobs is not None else TuningKnobs()
    tasks = []
    for value in values:
        app_at, knobs_at, faults_at = dial.turn(value, app, params, knobs,
                                                faults)
        tasks.append(PointTask(
            app=app_at, value=value,
            cluster=Cluster(n_nodes, params=params, knobs=knobs_at,
                            faults=faults_at, **cluster)))
    return tasks


@study
def run_sweep(app: Application, n_nodes: int, dial: Union[str, Dial],
              values: Optional[Sequence[float]] = None, **cluster) -> Plan:
    """Run ``app`` with ``dial`` at each of ``values``; the first value
    is the baseline.

    ``dial`` names a row of :data:`DIALS` — ``run_sweep(app, 32,
    "overhead")`` is Figure 5's sweep of one application — or is a
    caller's own :class:`Dial`; ``values`` defaults to the row's grid.

    ``jobs`` > 1 fans the points across a process pool (bit-identical
    results) and ``cache`` is an optional
    :class:`~repro.harness.runcache.RunCache` consulted before
    simulating and updated as each point lands — both as in
    :func:`repro.harness.parallel.run_points`, which drains the points;
    ``run_sweep.plan(...)`` is the same sweep not yet run.

    ``cluster`` is what every point's
    :class:`~repro.cluster.machine.Cluster` shares: ``params``,
    ``seed``, ``run_limit_us``, ``livelock_limit``, ``window``,
    ``sanitize``, ... — and ``knobs`` / ``faults``, which the
    dial turns *from*: a latency sweep with ``knobs=`` pinned at +25 µs
    of overhead keeps that overhead on every point, and a ``drop_rate``
    sweep keeps its ``faults`` plan's timeouts and retries.  All of it
    — and the per-point app's fingerprint — is the cache key, except
    ``sanitize=True``, which runs every point under simsan and bypasses
    the cache instead.
    """
    dial = dial_named(dial)
    values = dial.grid if values is None else values
    return Plan(
        sweep_tasks(app, n_nodes, dial, values, **cluster),
        lambda points: SweepResult(app_name=app.name, n_nodes=n_nodes,
                                   parameter=dial.name, points=points))


#: Sentinel sweep value for the no-spike baseline point of
#: :func:`spike_decay_sweep` (spike start times are always >= 0).
NO_SPIKE = -1.0


@study
def spike_decay_sweep(app: Application, n_nodes: int,
                      node: int, duration_us: float,
                      starts: Sequence[float],
                      **kwargs) -> Plan:
    """How a one-off delay spike's cost decays with its start time.

    Each point injects a single Afzal-style delay spike of
    ``duration_us`` at ``node``, beginning at one of ``starts``
    (simulated µs); the swept parameter is the start time.  The
    baseline point (sentinel value :data:`NO_SPIKE`) runs with no
    fault plan at all, so each point's residual over the baseline
    measures how much of the spike the application absorbed versus
    propagated.
    """
    def turn(start, app, params, knobs, faults):
        if start < 0:
            return app, knobs, None
        return app, knobs, FaultPlan(spikes=(
            DelaySpike(node=node, start_us=start,
                       duration_us=duration_us),))

    values = (NO_SPIKE,) + tuple(starts)
    return run_sweep.plan(
        app, n_nodes, Dial("spike_start_us", "spike start (us)", values,
                           turn), **kwargs)


@study
def collective_sweep(primitive: str, n_nodes: int,
                     parameter: str,
                     values: Optional[Sequence[float]] = None,
                     algo: Optional[str] = None,
                     size: int = 32,
                     bulk: bool = False,
                     iterations: int = 4, **kwargs) -> Plan:
    """Collective sensitivity: one primitive's runtime across one dial.

    Runs :class:`~repro.coll.bench.CollectiveBench` for ``primitive``
    (scheduled as ``algo``, or the registry default when ``algo`` is
    None) at every value of ``parameter`` — one of
    :data:`MACHINE_DIALS`, dialed
    exactly like the Figure 5-8 sweeps (``values`` defaults to the
    paper's grid).  The first value is the baseline, so slowdowns read
    like the paper's figures but for a single collective instead of a
    whole application.
    """
    from repro.coll.bench import CollectiveBench
    app = CollectiveBench(primitive, algo=algo, size=size, bulk=bulk,
                          iterations=iterations)
    return run_sweep.plan(app, n_nodes, dial_named(parameter, MACHINE_DIALS),
                          values, **kwargs)


@study
def measure_algorithms(n_ranks: int, sizes: Sequence[int],
                       primitives: Sequence[str],
                       params: Optional[LogGPParams] = None,
                       knobs: Optional[TuningKnobs] = None,
                       seed: int = 0, **bench) -> Plan:
    """(primitive, size) -> {algorithm: measured runtime in µs}.

    Each cell times every algorithm the dense uniform calibration
    benchmark can drive: one :class:`~repro.coll.bench.CollectiveBench`
    run (``bench`` holds its other knobs) per algorithm on a fresh
    cluster, served from ``cache`` when available.  Small sizes
    calibrate the short-packet regime, larger ones the bulk regime
    (``bulk=True`` whenever the declared size exceeds one short packet).
    """
    from repro.coll.algorithms import eligible_algorithms
    from repro.coll.bench import CollectiveBench
    runs = [(primitive, size, algo)
            for primitive in primitives for size in sizes
            for algo in eligible_algorithms(primitive, elementwise=True,
                                            dense=True, uniform=True)]

    def build(results: List[RunResult]
              ) -> Dict[Tuple[str, int], Dict[str, float]]:
        measured: Dict[Tuple[str, int], Dict[str, float]] = {}
        for (primitive, size, algo), result in zip(runs, results):
            measured.setdefault((primitive, size), {})[algo] = \
                result.runtime_us
        return measured
    return Plan.of_results(
        [PointTask(CollectiveBench(primitive, algo=algo, size=size,
                                   bulk=size > 64, **bench),
                   Cluster(n_ranks, params=params, knobs=knobs, seed=seed))
         for primitive, size, algo in runs]).then(build)
