"""LogGP parameter sweeps (the engine behind Figures 5-8).

A sweep runs one application on a sequence of machine configurations
that differ in exactly one dial, and reports the slowdown of each point
relative to the sweep's own baseline (first point), which is how the
paper normalises its figures.

Runs that end in livelock (Barnes under heavy overhead) or exceed the
configured simulated-time budget are recorded as ``N/A`` points with
``slowdown = None``, mirroring the paper's N/A entries in Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.am.tuning import TuningKnobs
from repro.apps.base import Application
from repro.cluster.machine import RunResult
from repro.network.faults import DelaySpike, FaultPlan
from repro.network.loggp import LogGPParams

__all__ = ["SweepPoint", "SweepResult", "FAILURE_CATEGORIES",
           "run_sweep", "predicted_sweep", "overhead_sweep",
           "gap_sweep", "latency_sweep", "bulk_bandwidth_sweep",
           "fault_sweep", "spike_decay_sweep", "NO_SPIKE",
           "collective_sweep", "COLLECTIVE_SWEEP_DIALS",
           "knob_factory", "MACHINE_DIALS",
           "PAPER_OVERHEADS", "PAPER_GAPS", "PAPER_LATENCIES",
           "PAPER_BANDWIDTHS", "FAULT_DROP_RATES"]

#: The paper's sweep grids (absolute parameter targets).
PAPER_OVERHEADS = (2.9, 3.9, 4.9, 6.9, 7.9, 13.0, 23.0, 53.0, 103.0)
PAPER_GAPS = (5.8, 8.0, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0)
PAPER_LATENCIES = (5.0, 7.5, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0)
PAPER_BANDWIDTHS = (38.0, 30.0, 25.0, 20.0, 15.0, 10.0, 5.5, 3.0, 1.0)

#: Per-packet drop probabilities for the fault-tolerance sweep.  The
#: first (0.0) point is the baseline: a null plan on a perfect fabric.
FAULT_DROP_RATES = (0.0, 0.001, 0.005, 0.01, 0.02, 0.05)


#: The failure categories :func:`~repro.harness.parallel.execute_point`
#: can produce, i.e. the prefixes of ``SweepPoint.failure``.
FAILURE_CATEGORIES = frozenset(
    {"deadlock", "livelock", "budget exceeded", "fault"})


@dataclass
class SweepPoint:
    """One configuration of a sweep."""

    #: The dialed parameter's absolute value (µs, or MB/s for bulk).
    value: float
    knobs: TuningKnobs
    #: None when the run did not complete (deadlock / livelock / budget
    #: / fault).
    result: Optional[RunResult] = None
    failure: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.result is not None

    @property
    def runtime_us(self) -> Optional[float]:
        return self.result.runtime_us if self.result else None

    @property
    def failure_category(self) -> Optional[str]:
        """The taxonomy bucket of :attr:`failure`.

        One of :data:`FAILURE_CATEGORIES` (``deadlock`` / ``livelock``
        / ``budget exceeded`` / ``fault``), ``"error"`` for an
        unrecognised failure string, or ``None`` when the point
        completed.
        """
        if self.failure is None:
            return None
        head = self.failure.split(":", 1)[0].strip()
        return head if head in FAILURE_CATEGORIES else "error"


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
        base = self.baseline.runtime_us
        if base is None:
            raise RuntimeError(
                f"{self.app_name}: baseline run did not complete")
        return [(p.value, p.runtime_us / base)
                for p in self.points if p.completed]

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


#: The four machine dials of the paper's apparatus, i.e. every
#: ``parameter`` :func:`knob_factory` can map to knob constructors.
MACHINE_DIALS = ("overhead", "gap", "latency", "bulk_mb_s")


def knob_factory(parameter: str,
                 params: Optional[LogGPParams] = None
                 ) -> Callable[[float], TuningKnobs]:
    """value → :class:`TuningKnobs` for one of the paper's four dials.

    The single source of the dial semantics used by the Figure 5-8
    sweeps, :func:`collective_sweep`, and the campaign manager's
    argument products: dialed values are *absolute* targets (µs, or
    MB/s for ``bulk_mb_s``), turned into added-delta knobs against the
    ``params`` baseline.
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


def run_sweep(app: Application, n_nodes: int, parameter: str,
              values: Sequence[float],
              knob_for: Callable[[float], TuningKnobs],
              params: Optional[LogGPParams] = None,
              seed: int = 0,
              run_limit_us: Optional[float] = None,
              livelock_limit: int = 200_000,
              window: int = 8,
              jobs: Optional[int] = None,
              cache: Optional["RunCache"] = None,  # noqa: F821
              fault_for: Optional[
                  Callable[[float], Optional[FaultPlan]]] = None,
              sanitize: bool = False,
              coll: Optional["CollConfig"] = None  # noqa: F821
              ) -> SweepResult:
    """Run ``app`` at each dialed value; first value is the baseline.

    ``jobs`` > 1 fans the points across a process pool (bit-identical
    results — see :mod:`repro.harness.parallel`); ``cache`` is an
    optional :class:`~repro.harness.runcache.RunCache` consulted before
    simulating and updated after.  ``fault_for`` optionally maps each
    value to a :class:`~repro.network.faults.FaultPlan` for that point.
    ``sanitize=True`` runs every point under simsan (and bypasses the
    cache — sanitized results are never cached or served from cache).
    ``coll`` applies one :class:`~repro.coll.tuner.CollConfig` to every
    point (part of the cache key unless it is the default).
    """
    # Imported lazily: parallel imports this module for SweepPoint/Result.
    from repro.harness.parallel import run_sweep_points
    return run_sweep_points(app, n_nodes, parameter, values, knob_for,
                            params=params, seed=seed,
                            run_limit_us=run_limit_us,
                            livelock_limit=livelock_limit, window=window,
                            jobs=jobs, cache=cache, fault_for=fault_for,
                            sanitize=sanitize, coll=coll)


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


def overhead_sweep(app: Application, n_nodes: int,
                   overheads: Sequence[float] = PAPER_OVERHEADS,
                   params: Optional[LogGPParams] = None,
                   **kwargs) -> SweepResult:
    """Figure 5: slowdown as a function of (absolute) overhead."""
    params = params or LogGPParams.berkeley_now()
    return run_sweep(
        app, n_nodes, "overhead", overheads,
        lambda o: TuningKnobs.added_overhead(
            max(0.0, o - params.overhead)),
        params=params, **kwargs)


def gap_sweep(app: Application, n_nodes: int,
              gaps: Sequence[float] = PAPER_GAPS,
              params: Optional[LogGPParams] = None,
              **kwargs) -> SweepResult:
    """Figure 6: slowdown as a function of (absolute) gap."""
    params = params or LogGPParams.berkeley_now()
    return run_sweep(
        app, n_nodes, "gap", gaps,
        lambda g: TuningKnobs.added_gap(max(0.0, g - params.gap)),
        params=params, **kwargs)


def latency_sweep(app: Application, n_nodes: int,
                  latencies: Sequence[float] = PAPER_LATENCIES,
                  params: Optional[LogGPParams] = None,
                  **kwargs) -> SweepResult:
    """Figure 7: slowdown as a function of (absolute) latency."""
    params = params or LogGPParams.berkeley_now()
    return run_sweep(
        app, n_nodes, "latency", latencies,
        lambda L: TuningKnobs.added_latency(
            max(0.0, L - params.latency)),
        params=params, **kwargs)


def bulk_bandwidth_sweep(app: Application, n_nodes: int,
                         bandwidths: Sequence[float] = PAPER_BANDWIDTHS,
                         params: Optional[LogGPParams] = None,
                         **kwargs) -> SweepResult:
    """Figure 8: slowdown as a function of available bulk bandwidth."""
    params = params or LogGPParams.berkeley_now()
    return run_sweep(
        app, n_nodes, "bulk_mb_s", bandwidths,
        lambda mb: TuningKnobs.bulk_bandwidth(mb, params),
        params=params, **kwargs)


def fault_sweep(app: Application, n_nodes: int,
                drop_rates: Sequence[float] = FAULT_DROP_RATES,
                base_plan: Optional[FaultPlan] = None,
                **kwargs) -> SweepResult:
    """Slowdown as a function of per-packet drop probability.

    The machine dials stay at the unmodified baseline; the only thing
    swept is the fault injector's drop rate.  Rate 0.0 yields a null
    plan, so the baseline point is bit-identical to an ordinary
    fault-free run (and shares its cache entry).  ``base_plan`` lets
    callers fix non-drop aspects (timeouts, retries, drop kinds).
    """
    plan = base_plan if base_plan is not None else FaultPlan()
    return run_sweep(
        app, n_nodes, "drop_rate", drop_rates,
        lambda _rate: TuningKnobs(),
        fault_for=lambda rate: plan.with_changes(drop_rate=rate),
        **kwargs)


#: Sentinel sweep value for the no-spike baseline point of
#: :func:`spike_decay_sweep` (spike start times are always >= 0).
NO_SPIKE = -1.0


def spike_decay_sweep(app: Application, n_nodes: int,
                      node: int, duration_us: float,
                      starts: Sequence[float],
                      **kwargs) -> SweepResult:
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

    return run_sweep(
        app, n_nodes, "spike_start_us", values,
        lambda _start: TuningKnobs(), fault_for=fault_for, **kwargs)


#: The dial each :func:`collective_sweep` point can move.  Mirrors the
#: four figure sweeps above (see :func:`knob_factory`).
COLLECTIVE_SWEEP_DIALS = MACHINE_DIALS


def collective_sweep(primitive: str, n_nodes: int,
                     parameter: str,
                     values: Sequence[float],
                     algo: Optional[str] = None,
                     size: int = 32,
                     bulk: bool = False,
                     iterations: int = 4,
                     params: Optional[LogGPParams] = None,
                     coll: Optional["CollConfig"] = None,  # noqa: F821
                     **kwargs) -> SweepResult:
    """Collective sensitivity: one primitive's runtime across one dial.

    Runs :class:`~repro.coll.bench.CollectiveBench` for ``primitive``
    (scheduled as ``algo``, or by the cluster's tuning policy when
    ``algo`` is None and ``coll`` supplies one) at every value of
    ``parameter`` — one of :data:`COLLECTIVE_SWEEP_DIALS`, dialed
    exactly like the Figure 5-8 sweeps.  The first value is the
    baseline, so slowdowns read like the paper's figures but for a
    single collective instead of a whole application.
    """
    from repro.coll.bench import CollectiveBench
    params = params or LogGPParams.berkeley_now()
    knob_for = knob_factory(parameter, params)
    app = CollectiveBench(primitive, algo=algo, size=size, bulk=bulk,
                          iterations=iterations)
    return run_sweep(app, n_nodes, parameter, values, knob_for,
                     params=params, coll=coll, **kwargs)
