"""LogGP parameter sweeps (the engine behind Figures 5-8).

A sweep runs one application on a sequence of machine configurations
that differ in exactly one dial, and reports the slowdown of each point
relative to the sweep's own baseline (first point), which is how the
paper normalises its figures.

Runs that end in livelock (Barnes under heavy overhead) or exceed the
configured simulated-time budget are recorded as ``N/A`` points with
``slowdown = None``, mirroring the paper's N/A entries in Table 5.

It is also the one table of *dial semantics*: what each named dial
moves (:func:`knob_factory`, :func:`dial_axes`), the paper's grid for
it (:data:`PAPER_GRIDS`) and its axis label (:data:`DIAL_LABELS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.am.tuning import TuningKnobs
from repro.apps.base import Application
from repro.cluster.machine import Cluster, RunResult
from repro.harness.parallel import (FAILURE_CATEGORIES, Plan, PointTask,
                                    SweepPoint, study, sweep_tasks)
from repro.harness.report import ascii_plot
from repro.network.faults import DelaySpike, FaultPlan
from repro.network.loggp import LogGPParams

__all__ = ["SweepPoint", "SweepResult", "SensitivityFigure",
           "FAILURE_CATEGORIES",
           "run_sweep", "predicted_sweep", "overhead_sweep",
           "gap_sweep", "latency_sweep", "bulk_bandwidth_sweep",
           "fault_sweep", "spike_decay_sweep", "NO_SPIKE",
           "collective_sweep", "measure_algorithms",
           "knob_factory", "dial_axes", "MACHINE_DIALS", "DIAL_LABELS",
           "PAPER_GRIDS", "FAULT_DROP_RATES"]

#: The paper's sweep grids (absolute parameter targets) by dial name:
#: Figures 5-8, in the paper's order.
PAPER_GRIDS = {
    "overhead": (2.9, 3.9, 4.9, 6.9, 7.9, 13.0, 23.0, 53.0, 103.0),
    "gap": (5.8, 8.0, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0),
    "latency": (5.0, 7.5, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0),
    "bulk_mb_s": (38.0, 30.0, 25.0, 20.0, 15.0, 10.0, 5.5, 3.0, 1.0)}

#: Per-packet drop probabilities for the fault-tolerance sweep.  The
#: first (0.0) point is the baseline: a null plan on a perfect fabric.
FAULT_DROP_RATES = (0.0, 0.001, 0.005, 0.01, 0.02, 0.05)

#: Axis labels of every named dial a sweep or campaign can move.
DIAL_LABELS = {"overhead": "overhead (us)", "gap": "gap (us)",
               "latency": "latency (us)",
               "bulk_mb_s": "bulk bandwidth (MB/s)",
               "drop_rate": "drop rate",
               "offered_rps": "offered load (req/s)"}


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

    def as_rows(self) -> List[dict]:
        """Flat dict rows (value, runtime, slowdown) per point.

        Unlike :meth:`slowdowns` / :meth:`series`, a failed *baseline*
        does not raise here: report generation over a whole suite must
        not crash because one sweep's first point livelocked, so every
        point's slowdown is simply ``"N/A"`` in that case.

        The ``failure`` column carries the point's
        :attr:`~SweepPoint.failure_category` (empty string for
        completed points), so N/A cells are distinguishable in reports.
        """
        base = self.baseline.runtime_us
        rows = []
        for point in self.points:
            slowdown = point.runtime_us / base \
                if point.completed and base is not None else None
            rows.append({
                "app": self.app_name,
                self.parameter: point.value,
                "runtime_us": (round(point.runtime_us, 1)
                               if point.completed else "N/A"),
                "slowdown": (round(slowdown, 2)
                             if slowdown is not None else "N/A"),
                "failure": point.failure_category or "",
            })
        return rows


@dataclass
class SensitivityFigure:
    """One sensitivity figure: a sweep per application."""

    title: str
    x_label: str
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)

    def series(self) -> Dict[str, List[tuple]]:
        """Per-application (value, slowdown) series."""
        return {name: sweep.series()
                for name, sweep in self.sweeps.items()}

    def rows(self) -> List[dict]:
        """All sweeps' rows, concatenated."""
        rows = []
        for sweep in self.sweeps.values():
            rows.extend(sweep.as_rows())
        return rows

    def max_slowdown(self, app_name: str) -> Optional[float]:
        """Largest completed slowdown for one application."""
        series = self.sweeps[app_name].series()
        return max(y for _x, y in series) if series else None

    def render(self) -> str:
        """ASCII plot of every application's slowdown curve."""
        return ascii_plot(self.series(), title=self.title,
                          x_label=self.x_label, y_label="slowdown")


#: The four machine dials of the paper's apparatus, i.e. every
#: ``parameter`` :func:`knob_factory` can map to knob constructors.
MACHINE_DIALS = tuple(PAPER_GRIDS)


def knob_factory(parameter: str,
                 params: Optional[LogGPParams] = None
                 ) -> Callable[[float], TuningKnobs]:
    """value → :class:`TuningKnobs` for one of the paper's four dials.

    The single source of the machine-dial semantics: dialed values are
    *absolute* targets (µs, or MB/s for ``bulk_mb_s``), turned into
    added-delta knobs against the ``params`` baseline.
    """
    params = params if params is not None else LogGPParams.berkeley_now()
    if parameter == "overhead":
        return lambda o: TuningKnobs.added_overhead(
            max(0.0, o - params.overhead))
    if parameter == "gap":
        return lambda g: TuningKnobs.added_gap(max(0.0, g - params.gap))
    if parameter == "latency":
        return lambda L: TuningKnobs.added_latency(
            max(0.0, L - params.latency))
    if parameter == "bulk_mb_s":
        return lambda mb: TuningKnobs.bulk_bandwidth(mb, params)
    raise ValueError(
        f"parameter must be one of {MACHINE_DIALS}, got {parameter!r}")


def dial_axes(parameter: str, app: Any,
              params: Optional[LogGPParams] = None,
              knobs: Optional[TuningKnobs] = None,
              faults: Optional[FaultPlan] = None
              ) -> Tuple[Callable[[float], TuningKnobs],
                         Callable[[float], Optional[FaultPlan]],
                         Callable[[float], Any]]:
    """``(knob_for, fault_for, app_for)``: what one named dial moves.

    A machine dial moves the knobs (:func:`knob_factory`), ``drop_rate``
    the fault plan's drop probability (rate 0.0 on no plan is a null
    plan: bit-identical to, and keyed as, a fault-free run) and
    ``offered_rps`` the application's client tier; whatever the dial
    does not move stays at ``knobs`` / ``faults`` / ``app``.
    """
    pinned = knobs if knobs is not None else TuningKnobs()
    knob_for = lambda _value: pinned  # noqa: E731
    fault_for = lambda _value: faults  # noqa: E731
    app_for = lambda _value: app  # noqa: E731
    if parameter == "drop_rate":
        plan = faults if faults is not None else FaultPlan()
        fault_for = lambda p: plan.with_changes(drop_rate=p)  # noqa: E731
    elif parameter == "offered_rps":
        app_for = lambda rps: app.with_changes(offered_rps=rps)  # noqa: E731
    else:
        knob_for = knob_factory(parameter, params)
    return knob_for, fault_for, app_for


@study
def run_sweep(app: Application, n_nodes: int, parameter: str,
              values: Sequence[float],
              knob_for: Callable[[float], TuningKnobs],
              fault_for: Optional[
                  Callable[[float], Optional[FaultPlan]]] = None,
              app_for: Optional[Callable[[float], Any]] = None,
              **cluster) -> Plan:
    """Run ``app`` at each dialed value; first value is the baseline.

    ``jobs`` > 1 fans the points across a process pool (bit-identical
    results) and ``cache`` is an optional
    :class:`~repro.harness.runcache.RunCache` consulted before
    simulating and updated as each point lands — both as in
    :func:`repro.harness.parallel.run_points`, which drains the points;
    ``run_sweep.plan(...)`` is the same sweep not yet run.

    Per value, ``knob_for`` gives the dials, ``fault_for`` (optional)
    the :class:`~repro.network.faults.FaultPlan` and ``app_for``
    (optional) the application instance, for sweeps whose axis is an
    *application* knob such as the serving tier's offered load.
    ``cluster`` is what every point's
    :class:`~repro.cluster.machine.Cluster` shares: ``params``,
    ``seed``, ``run_limit_us``, ``livelock_limit``, ``window``,
    ``coll``, ``sanitize``, ...  All of it — and the per-point app's
    fingerprint — is the cache key, except ``sanitize=True``, which
    runs every point under simsan and bypasses the cache instead.
    """
    return Plan(
        sweep_tasks(app, n_nodes, values, knob_for, fault_for=fault_for,
                    app_for=app_for, **cluster),
        lambda points: SweepResult(app_name=app.name, n_nodes=n_nodes,
                                   parameter=parameter, points=points))


def predicted_sweep(app: Application, n_nodes: int, parameter: str,
                    values: Sequence[float],
                    knob_for: Optional[
                        Callable[[float], TuningKnobs]] = None,
                    params: Optional[LogGPParams] = None,
                    seed: int = 0,
                    run_limit_us: Optional[float] = None,
                    livelock_limit: int = 200_000,
                    window: int = 8,
                    graph: Optional["CostGraph"] = None,  # noqa: F821
                    ):
    """The analytical drop-in for :func:`run_sweep` (simcost).

    One instrumented simulation of ``app`` at the baseline replaces
    the whole dial sweep: the run's dependency DAG is recorded, then
    every value of ``parameter`` is predicted by symbolic longest-path
    replay (see :mod:`repro.cost`).  Returns a
    :class:`~repro.cost.predict.PredictedSweep`, which reads like a
    :class:`SweepResult` (``values`` / ``slowdowns`` / ``series`` /
    ``as_rows``) but reports ``simulations_used`` (1, or 0 when a
    pre-recorded ``graph`` is supplied) instead of one run per point.

    ``knob_for`` defaults to the shared :func:`knob_factory` dial
    semantics, so predicted and simulated sweeps dial identically.
    """
    from repro.cost.predict import predict_sweep as _predict
    from repro.cost.recorder import record_run
    simulations = 0
    if graph is None:
        graph, _result = record_run(
            app, n_nodes, params=params, seed=seed, window=window,
            run_limit_us=run_limit_us, livelock_limit=livelock_limit)
        simulations = 1
    sweep = _predict(graph, parameter, values, knob_for=knob_for)
    sweep.simulations_used = simulations
    return sweep


@study
def overhead_sweep(app: Application, n_nodes: int,
                   overheads: Sequence[float] = PAPER_GRIDS["overhead"],
                   params: Optional[LogGPParams] = None,
                   **kwargs) -> Plan:
    """Figure 5: slowdown as a function of (absolute) overhead."""
    return run_sweep.plan(app, n_nodes, "overhead", overheads,
                     knob_factory("overhead", params), params=params,
                     **kwargs)


@study
def gap_sweep(app: Application, n_nodes: int,
              gaps: Sequence[float] = PAPER_GRIDS["gap"],
              params: Optional[LogGPParams] = None,
              **kwargs) -> Plan:
    """Figure 6: slowdown as a function of (absolute) gap."""
    return run_sweep.plan(app, n_nodes, "gap", gaps,
                     knob_factory("gap", params), params=params, **kwargs)


@study
def latency_sweep(app: Application, n_nodes: int,
                  latencies: Sequence[float] = PAPER_GRIDS["latency"],
                  params: Optional[LogGPParams] = None,
                  **kwargs) -> Plan:
    """Figure 7: slowdown as a function of (absolute) latency."""
    return run_sweep.plan(app, n_nodes, "latency", latencies,
                     knob_factory("latency", params), params=params,
                     **kwargs)


@study
def bulk_bandwidth_sweep(app: Application, n_nodes: int,
                         bandwidths: Sequence[float] =
                         PAPER_GRIDS["bulk_mb_s"],
                         params: Optional[LogGPParams] = None,
                         **kwargs) -> Plan:
    """Figure 8: slowdown as a function of available bulk bandwidth."""
    return run_sweep.plan(app, n_nodes, "bulk_mb_s", bandwidths,
                     knob_factory("bulk_mb_s", params), params=params,
                     **kwargs)


@study
def fault_sweep(app: Application, n_nodes: int,
                drop_rates: Sequence[float] = FAULT_DROP_RATES,
                base_plan: Optional[FaultPlan] = None,
                **kwargs) -> Plan:
    """Slowdown as a function of per-packet drop probability.

    The machine dials stay at the unmodified baseline; the only thing
    swept is the fault injector's drop rate (:func:`dial_axes`), so the
    rate-0.0 baseline shares the fault-free run's cache entry.
    ``base_plan`` lets callers fix non-drop aspects (timeouts, retries,
    drop kinds).
    """
    knob_for, fault_for, _app_for = dial_axes("drop_rate", app,
                                              faults=base_plan)
    return run_sweep.plan(app, n_nodes, "drop_rate", drop_rates, knob_for,
                     fault_for=fault_for, **kwargs)


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
    values = (NO_SPIKE,) + tuple(starts)

    def fault_for(start: float) -> Optional[FaultPlan]:
        if start < 0:
            return None
        return FaultPlan(spikes=(
            DelaySpike(node=node, start_us=start,
                       duration_us=duration_us),))

    return run_sweep.plan(
        app, n_nodes, "spike_start_us", values,
        lambda _start: TuningKnobs(), fault_for=fault_for, **kwargs)


@study
def collective_sweep(primitive: str, n_nodes: int,
                     parameter: str,
                     values: Sequence[float],
                     algo: Optional[str] = None,
                     size: int = 32,
                     bulk: bool = False,
                     iterations: int = 4,
                     params: Optional[LogGPParams] = None,
                     coll: Optional["CollConfig"] = None,  # noqa: F821
                     **kwargs) -> Plan:
    """Collective sensitivity: one primitive's runtime across one dial.

    Runs :class:`~repro.coll.bench.CollectiveBench` for ``primitive``
    (scheduled as ``algo``, or by the cluster's tuning policy when
    ``algo`` is None and ``coll`` supplies one) at every value of
    ``parameter`` — one of :data:`MACHINE_DIALS`, dialed
    exactly like the Figure 5-8 sweeps.  The first value is the
    baseline, so slowdowns read like the paper's figures but for a
    single collective instead of a whole application.
    """
    from repro.coll.bench import CollectiveBench
    params = params or LogGPParams.berkeley_now()
    knob_for = knob_factory(parameter, params)
    app = CollectiveBench(primitive, algo=algo, size=size, bulk=bulk,
                          iterations=iterations)
    return run_sweep.plan(app, n_nodes, parameter, values, knob_for,
                     params=params, coll=coll, **kwargs)


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
