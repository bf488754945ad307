"""One entry point per table and figure of the paper's evaluation.

The simulating ones return the artifact's
:class:`~repro.harness.parallel.Plan`, whose build makes its value: a
result object with a ``render()``, or plain data where the
``EXPERIMENTS.md`` section reads only numbers (Table 3's runtimes,
Figure 4's runs).  ``.run(cache=, jobs=)`` drains one plan on its own;
drivers drain many at once with :func:`~repro.harness.parallel.run_plans`.
:mod:`repro.harness.claims` checks the qualitative shape.  Input scale
and application subsets are parameters, so smoke runs stay quick and
users can crank fidelity.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.calibrate.bulk import calibrate_bulk_bandwidth
from repro.calibrate.calibration import (CalibrationRow, calibration_table,
                                         render_calibration)
from repro.calibrate.signature import (LogPSignature, logp_signature,
                                       measure_parameters)
from repro.cluster.machine import Cluster, RunResult
from repro.cluster.presets import MACHINE_PRESETS
from repro.cost.graph import CostGraph
from repro.cost.predict import latency_tolerance, predict_sweep
from repro.cost.recorder import recording
from repro.harness.parallel import Plan, PointTask
from repro.harness.report import markdown_table, render_table
from repro.harness.suite import suite_for
from repro.harness.sweeps import (DIALS, MACHINE_DIALS, SensitivityFigure,
                                  SweepResult, collective_sweep, dial_named,
                                  measure_algorithms, run_sweep,
                                  spike_decay_sweep)
from repro.models.gap import BurstGapModel
from repro.models.overhead import OverheadModel
from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams

__all__ = [
    "table1_baseline_params", "figure3_signature", "table2_calibration",
    "table3_baseline_runtimes", "figure4_balance", "table4_comm_summary",
    "sensitivity_figure", "table5_overhead_model", "table6_gap_model",
    "recorded_suite", "predicted_figure", "prediction_errors",
    "tolerance_table",
    "table7_spike_decay",
    "figure10_collectives", "model_picks", "table8_collectives",
    "figure11_serving",
]


# ---------------------------------------------------------------------------
# Table 1 -- baseline LogGP parameters of the machine presets.
# ---------------------------------------------------------------------------

@dataclass
class RowTable:
    """A titled table of flat rows: Table 1's, and the model tables'
    measured vs predicted runtimes along one sweep."""

    title: str
    rows_: List[dict]

    def rows(self) -> List[dict]:
        """Flat dict rows."""
        return self.rows_

    def render(self) -> str:
        """ASCII rendering of the table."""
        return render_table(self.rows_, title=self.title)

    def prediction_error(self, app_name: str) -> List[float]:
        """Relative error (pred - measured)/measured for completed
        points of one app."""
        errors = []
        for row in self.rows_:
            if row["app"] != app_name or row["measured_us"] == "N/A":
                continue
            errors.append((row["predicted_us"] - row["measured_us"])
                          / row["measured_us"])
        return errors


def table1_baseline_params() -> RowTable:
    """Measure (o, g, L, 1/G) of every machine preset with the
    microbenchmarks, as Table 1 reports them."""
    rows = []
    for name, params in MACHINE_PRESETS.items():
        if name == "lan-tcp":
            continue  # Table 1 lists the three real machines
        measured = measure_parameters(params)
        bulk = calibrate_bulk_bandwidth(params, sizes=(2048, 4096, 8192))
        rows.append({
            "Platform": name,
            "o (us)": round(measured.overhead, 1),
            "g (us)": round(measured.gap, 1),
            "L (us)": round(measured.latency, 1),
            "MB/s (1/G)": round(bulk.saturated_mb_s),
        })
    return RowTable("Table 1: baseline LogGP parameters (measured on the "
                    "simulated machines)", rows)


# ---------------------------------------------------------------------------
# Figure 3 -- the LogP signature.
# ---------------------------------------------------------------------------

def figure3_signature(desired_gap: float = 14.0) -> LogPSignature:
    """The paper's example signature: g dialed to 14 µs, Δ ∈ {0, 10}."""
    params = LogGPParams.berkeley_now()
    knobs = DIALS["gap"].knobs(desired_gap, params)
    return logp_signature(params, knobs,
                          burst_sizes=(1, 2, 4, 8, 16, 32, 64),
                          deltas=(0.0, 10.0))


# ---------------------------------------------------------------------------
# Table 2 -- calibration of the dials.
# ---------------------------------------------------------------------------

@dataclass
class Table2:
    """Table 2's calibration rows."""

    rows_: List[CalibrationRow]

    def render(self) -> str:
        """ASCII rendering of the table."""
        return render_calibration(self.rows_)


def table2_calibration(**kwargs) -> Table2:
    """Regenerate Table 2 (see :func:`repro.calibrate.calibration_table`)."""
    return Table2(rows_=calibration_table(**kwargs))


# ---------------------------------------------------------------------------
# Table 3 -- applications and base runtimes on 16 and 32 nodes.
# ---------------------------------------------------------------------------

def _suite_runs(n_nodes: int, scale: float,
                names: Optional[Sequence[str]], seed: int) -> Plan:
    """app name -> the suite's run on the unmodified ``n_nodes`` machine.

    These are the sweeps' own baseline points — same run key — so
    Tables 3/4, Figure 4 and Figures 5-9 simulate each of them once
    between them: drained together, or through a shared ``cache``.
    """
    apps = suite_for(n_nodes, scale=scale, names=names)
    return Plan.of_results(
        [PointTask(app, Cluster(n_nodes=n_nodes, seed=seed))
         for app in apps]).then(
        lambda results: {app.name: result
                         for app, result in zip(apps, results)})


def table3_baseline_runtimes(node_counts: Sequence[int] = (16, 32),
                             scale: float = 1.0,
                             names: Optional[Sequence[str]] = None,
                             seed: int = 0) -> Plan:
    """Run the suite at each cluster size with fixed total inputs:
    app name -> nodes -> runtime (µs)."""
    def build(suites: List[Dict[str, RunResult]]
              ) -> Dict[str, Dict[int, float]]:
        runtimes: Dict[str, Dict[int, float]] = {}
        for n_nodes, runs in zip(node_counts, suites):
            for name, result in runs.items():
                runtimes.setdefault(name, {})[n_nodes] = result.runtime_us
        return runtimes
    return Plan.union([_suite_runs(n_nodes, scale, names, seed)
                       for n_nodes in node_counts]).then(build)


# ---------------------------------------------------------------------------
# Figure 4 -- communication balance matrices.
# ---------------------------------------------------------------------------

def figure4_balance(n_nodes: int = 32, scale: float = 1.0,
                    names: Optional[Sequence[str]] = None,
                    seed: int = 0) -> Plan:
    """Run the suite once: app name -> the run whose balance matrix
    Figure 4 draws."""
    return _suite_runs(n_nodes, scale, names, seed)


# ---------------------------------------------------------------------------
# Table 4 -- communication summary.
# ---------------------------------------------------------------------------

@dataclass
class Table4:
    """Table 4's per-application run results."""

    results: Dict[str, RunResult]

    def rows(self) -> List[dict]:
        """One Table 4 row per application."""
        return [result.summary().as_row()
                for result in self.results.values()]

    def render(self) -> str:
        """ASCII rendering of the table, titled with its runs' machine."""
        n_nodes = next(iter(self.results.values())).n_nodes
        return render_table(self.rows(), title="Table 4: communication "
                            f"summary ({n_nodes}-node configuration)")


def table4_comm_summary(n_nodes: int = 32, scale: float = 1.0,
                        names: Optional[Sequence[str]] = None,
                        seed: int = 0) -> Plan:
    """Run the suite once and collect Table 4's summaries."""
    return _suite_runs(n_nodes, scale, names, seed).then(Table4)


# ---------------------------------------------------------------------------
# Figures 5-9 -- the sensitivity studies: one experiment, a different
# dial turned (Figure 9, packet loss, is beyond the paper).
# ---------------------------------------------------------------------------

#: dial -> the paper's name for the figure over it.
FIGURE_TITLES = {
    "overhead": "Figure 5 ({n_nodes} nodes): sensitivity to overhead",
    "gap": "Figure 6: sensitivity to gap",
    "latency": "Figure 7: sensitivity to latency",
    "bulk_mb_s": "Figure 8: sensitivity to bulk bandwidth",
    "drop_rate": "Figure 9 ({n_nodes} nodes): sensitivity to packet loss",
}


def sensitivity_figure(parameter: str, n_nodes: int = 32,
                       scale: float = 1.0,
                       names: Optional[Sequence[str]] = None,
                       values: Optional[Sequence[float]] = None,
                       seed: int = 0, **kwargs) -> Plan:
    """Figures 5-9: every suite application's slowdown along one dial.

    ``parameter`` is a key of :data:`FIGURE_TITLES` and ``values`` its
    grid (default: the paper's, baseline first).  Figure 5 is run per
    node count.  Figure 9 sweeps the fault injector's drop rate with
    the machine dials held at the unmodified baseline; the reliability
    protocol's timeouts and retransmissions are what turn packet loss
    into slowdown.
    """
    dial = dial_named(parameter, FIGURE_TITLES)
    figure = SensitivityFigure(
        title=FIGURE_TITLES[parameter].format(n_nodes=n_nodes),
        x_label=dial.label)
    apps = suite_for(n_nodes, scale=scale, names=names)
    return Plan.union(
        [run_sweep(app, n_nodes, dial, values, seed=seed, **kwargs)
         for app in apps]).then(
        lambda sweeps: replace(figure, sweeps={
            app.name: result for app, result in zip(apps, sweeps)}))


# ---------------------------------------------------------------------------
# Figures 5-8 predicted (simcost, beyond the paper): one recorded run per
# application stands in for every dialed point, and the simulated figure
# is the ground truth it is checked against.
# ---------------------------------------------------------------------------

def recorded_suite(n_nodes: int, scale: float = 1.0,
                   names: Optional[Sequence[str]] = None,
                   seed: int = 0) -> Plan:
    """The plan of one :func:`repro.cost.recording` per suite
    application, building their graphs in suite order.  Each recording
    has the run key of the app's baseline point in Figures 5-8, so
    drained beside them it is that point, simulated once."""
    return Plan.union([
        recording(app, n_nodes, seed=seed)
        for app in suite_for(n_nodes, scale=scale, names=names)]).then(
        lambda recorded: [graph for graph, _result in recorded])


def predicted_figure(graphs: Sequence[CostGraph], parameter: str,
                     values: Optional[Sequence[float]] = None
                     ) -> SensitivityFigure:
    """A predicted Figure 5/6/7/8 from recorded runs, simulating nothing.

    ``graphs`` are recordings (:func:`recorded_suite`), one per
    application (record once, predict every dial); ``parameter`` is one
    of :data:`~repro.harness.sweeps.MACHINE_DIALS` and ``values`` its
    grid, as for :func:`sensitivity_figure`.  The figure renders like
    the simulated one; its sweeps hold
    :class:`~repro.cost.predict.PredictedPoint` s and its ``x_label``
    is the dial's name.
    """
    figure = SensitivityFigure(
        title=f"Predicted sensitivity to {parameter} "
              f"({graphs[0].n_nodes} nodes, simcost)",
        x_label=parameter)
    for graph in graphs:
        figure.sweeps[graph.app_name] = predict_sweep(graph, parameter,
                                                      values)
    return figure


@dataclass
class PredictionErrors:
    """A predicted figure checked point by point against a simulated one."""

    parameter: str
    #: ``(app, value, simulated, predicted, rel_err)`` per point, in the
    #: predicted figure's order; ``simulated`` and ``rel_err`` are None
    #: where the simulated point is N/A.
    rows: List[tuple]
    #: Median ``rel_err`` over the points that have one (None if none do).
    median: Optional[float]

    def render(self) -> str:
        """Markdown table of the rows."""
        def cell(value, digits=2, suffix=""):
            return "N/A" if value is None else f"{value:.{digits}f}{suffix}"
        return markdown_table(
            ["app", self.parameter, "simulated", "predicted", "rel err"],
            [(app, f"{value:g}", cell(simulated), cell(predicted),
              cell(None if err is None else err * 100, 1, "%"))
             for app, value, simulated, predicted, err in self.rows])


def prediction_errors(predicted: SensitivityFigure,
                      simulated: SensitivityFigure) -> PredictionErrors:
    """Pair :func:`predicted_figure` output with the simulated figure
    over the same dial and grid: per-point slowdowns, their relative
    error ``|predicted - simulated| / simulated``, and its median.
    Applications the simulated figure lacks are skipped."""
    rows, errors = [], []
    for name, sweep in predicted.sweeps.items():
        truth = simulated.sweeps.get(name)
        if truth is None:
            continue
        for value, pred, sim in zip(sweep.values(), sweep.slowdowns(),
                                    truth.slowdowns()):
            err = None if sim is None else abs(pred - sim) / sim
            if err is not None:
                errors.append(err)
            rows.append((name, value, sim, pred, err))
    return PredictionErrors(
        parameter=predicted.x_label, rows=rows,
        median=statistics.median(errors) if errors else None)


def tolerance_table(graphs: Sequence[CostGraph]) -> str:
    """Markdown table: per application, the value of each machine dial
    at which its predicted slowdown reaches 2x (``never`` within the
    search range; see :func:`repro.cost.predict.latency_tolerance`)."""
    def cell(graph, dial):
        crossing = latency_tolerance(graph, dial, threshold=2.0)
        return "never" if crossing is None else f"{crossing:.1f}"
    return markdown_table(["app", *MACHINE_DIALS], [
        [graph.app_name, *(cell(graph, dial) for dial in MACHINE_DIALS)]
        for graph in graphs])


# ---------------------------------------------------------------------------
# Tables 5 and 6 -- model predictions vs measurements.
# ---------------------------------------------------------------------------

def _model_table(figure: SensitivityFigure, model_class: type,
                 column: str, title: str) -> RowTable:
    """``model_class`` fitted at each sweep's baseline, against every
    measured point of that sweep."""
    rows = []
    for app_name, sweep in figure.sweeps.items():
        baseline = sweep.baseline.result
        model = model_class(
            base_runtime_us=baseline.runtime_us,
            max_messages_per_proc=baseline.stats.max_messages_per_node)
        base = sweep.points[0].value
        for point in sweep.points:
            delta = max(0.0, point.value - base)
            rows.append({
                "app": app_name,
                column: point.value,
                "measured_us": (round(point.runtime_us, 1)
                                if point.completed else "N/A"),
                "predicted_us": round(model.predict_runtime(delta), 1),
            })
    return RowTable(title=title, rows_=rows)


def table5_overhead_model(n_nodes: int = 32, scale: float = 1.0,
                          names: Optional[Sequence[str]] = None,
                          values: Optional[Sequence[float]] = None,
                          seed: int = 0, **kwargs) -> Plan:
    """Table 5: the 2·m·Δo model against measured sweep runtimes."""
    return sensitivity_figure(
        "overhead", n_nodes=n_nodes, scale=scale, names=names,
        values=values, seed=seed, **kwargs).then(
        lambda figure: _model_table(figure, OverheadModel, "o (us)",
                                    "Table 5: overhead model (r + 2 m do)"))


def table6_gap_model(n_nodes: int = 32, scale: float = 1.0,
                     names: Optional[Sequence[str]] = None,
                     values: Optional[Sequence[float]] = None,
                     seed: int = 0, **kwargs) -> Plan:
    """Table 6: the burst gap model against measured sweep runtimes."""
    return sensitivity_figure(
        "gap", n_nodes=n_nodes, scale=scale, names=names, values=values,
        seed=seed, **kwargs).then(lambda figure: _model_table(
            figure, BurstGapModel, "g (us)",
            "Table 6: burst gap model (r + m dg)"))


# ---------------------------------------------------------------------------
# Table 7 -- delay-spike propagation (beyond the paper).
# ---------------------------------------------------------------------------

def table7_spike_decay(n_nodes: int = 32, scale: float = 1.0,
                       names: Optional[Sequence[str]] = None,
                       node: int = 0, duration_us: float = 500.0,
                       starts: Sequence[float] = (0.0, 250.0, 500.0,
                                                  1000.0, 2000.0),
                       seed: int = 0, **kwargs) -> Plan:
    """Table 7: how a one-off delay spike's cost propagates.

    Injects a single ``duration_us`` delay spike at ``node`` at each
    start time and reports the residual over the spike-free baseline,
    both in µs and as a fraction of the spike duration (1.0 = the
    whole spike surfaced in the critical path; > 1.0 = it cascaded).
    """
    def build(sweeps: List[SweepResult]) -> RowTable:
        rows = []
        for sweep in sweeps:
            base = sweep.baseline.runtime_us
            for point in sweep.points[1:]:
                residual = (point.runtime_us - base
                            if point.completed and base is not None
                            else None)
                rows.append({
                    "app": sweep.app_name,
                    "spike_start_us": point.value,
                    "runtime_us": (round(point.runtime_us, 1)
                                   if point.completed else "N/A"),
                    "residual_us": (round(residual, 1)
                                    if residual is not None else "N/A"),
                    "propagated": (round(residual / duration_us, 2)
                                   if residual is not None else "N/A"),
                })
        return RowTable(f"Table 7: delay-spike propagation "
                        f"({duration_us:g} us spike at node {node})", rows)
    return Plan.union(
        [spike_decay_sweep(app, n_nodes, node=node,
                           duration_us=duration_us, starts=starts,
                           seed=seed, **kwargs)
         for app in suite_for(n_nodes, scale=scale, names=names)]
    ).then(build)


# ---------------------------------------------------------------------------
# Figure 10 / Table 8 -- tuned collectives (beyond the paper).
# ---------------------------------------------------------------------------

def figure10_collectives(n_nodes: int = 32,
                         primitives: Sequence[str] = ("broadcast",
                                                      "allreduce",
                                                      "allgather",
                                                      "alltoall"),
                         parameter: str = "gap",
                         values: Optional[Sequence[float]] = None,
                         size: int = 16384, bulk: bool = True,
                         iterations: int = 4, seed: int = 0,
                         **kwargs) -> Plan:
    """Figure 10: collective algorithm sensitivity to one dial.

    For each primitive, sweeps every registered algorithm the
    calibration benchmark can drive across ``parameter`` (dialed like
    Figures 5-8) and plots one ``primitive/algorithm`` series per
    combination.  Where the series cross is where a call site should
    name another schedule with ``algo=`` — the crossovers Table 8
    grades the cost model on finding.
    """
    from repro.coll.algorithms import eligible_algorithms
    figure = SensitivityFigure(
        title=f"Figure 10 ({n_nodes} nodes): collective sensitivity "
              f"to {parameter}",
        x_label=parameter)
    series = [(primitive, algo) for primitive in primitives
              for algo in eligible_algorithms(primitive, elementwise=True,
                                              dense=True, uniform=True)]
    return Plan.union(
        [collective_sweep(
            primitive, n_nodes, parameter, values, algo=algo, size=size,
            bulk=bulk, iterations=iterations, seed=seed, **kwargs)
         for primitive, algo in series]).then(
        lambda sweeps: replace(figure, sweeps={
            f"{primitive}/{algo}": sweep
            for (primitive, algo), sweep in zip(series, sweeps)}))


def model_picks(cells: Dict[tuple, Dict[str, float]], n_nodes: int,
                knobs: Optional[TuningKnobs] = None) -> List[dict]:
    """Per :func:`~repro.harness.sweeps.measure_algorithms` cell: the
    measured winner, the closed-form model's pick on the same machine
    (the NOW with ``knobs``), the pick's measured cost over the
    winner's, and whether it is within 10% of it ("ok")."""
    from repro.coll.model import predicted_ranking
    params = LogGPParams.berkeley_now()
    knobs = knobs if knobs is not None else TuningKnobs()
    rows = []
    for (primitive, size), measured in cells.items():
        best_time, best_algo = min((t, a) for a, t in measured.items())
        model_algo = next(
            algo for _cost, algo in predicted_ranking(
                primitive, n_nodes, size, params, knobs, bulk=size > 64)
            if algo in measured)
        overcost = measured[model_algo] / best_time
        rows.append({
            "primitive": primitive,
            "size": size,
            "measured_best": best_algo,
            "model_pick": model_algo,
            "overcost": round(overcost, 3),
            "within_10pct": "ok" if overcost <= 1.10 else "MISS",
        })
    return rows


def table8_collectives(n_nodes: int = 32,
                       primitives: Sequence[str] = ("broadcast",
                                                    "allreduce",
                                                    "allgather",
                                                    "alltoall"),
                       sizes: Sequence[int] = (32, 1024, 16384, 65536),
                       knobs: Optional[TuningKnobs] = None,
                       seed: int = 0, **kwargs) -> Plan:
    """Table 8: the LogGP model's algorithm picks vs measured winners.

    For each (primitive, size) cell, times every eligible algorithm
    with :class:`~repro.coll.bench.CollectiveBench` on the NOW with
    ``knobs``, then reports the :func:`model_picks` rows for the same
    machine.  The bottom-line agreement rate is the claims row
    ``t8.agreement`` (at least 80%).
    """
    return measure_algorithms(n_nodes, sizes, primitives, knobs=knobs,
                              seed=seed, **kwargs).then(
        lambda cells: RowTable(
            f"Table 8 ({n_nodes} nodes): model-driven algorithm "
            "selection vs measured winners",
            model_picks(cells, n_nodes, knobs)))


# ---------------------------------------------------------------------------
# Figure 11 -- the SLO-vs-throughput curve of the serving workload, as a
# function of the machine dials and the drop rate (the paper's
# sensitivity question asked of an open system).
# ---------------------------------------------------------------------------

@dataclass
class ServingFigure:
    """Figure 11: serving-tail sensitivity plus SLO-knee curves.

    ``dial_sweeps`` holds one serving sweep per dialed axis (overhead,
    latency, drop rate, offered load) at the baseline machine;
    ``knee_sweeps`` holds one offered-load sweep per overhead setting,
    from which :meth:`knees` reads the largest offered load still
    meeting the p999 SLO — the crossover EXPERIMENTS.md documents is
    how that knee collapses as overhead grows.
    """

    title: str
    slo_us: float
    dial_sweeps: Dict[str, SweepResult] = field(default_factory=dict)
    knee_sweeps: Dict[float, SweepResult] = field(default_factory=dict)

    def knees(self) -> Dict[float, Optional[float]]:
        """Per-overhead SLO knee: the largest offered load whose run
        stayed unsaturated with p999 within the SLO (None if even the
        lowest offered point violates it)."""
        knees: Dict[float, Optional[float]] = {}
        for overhead, sweep in self.knee_sweeps.items():
            knee = None
            for point in sweep.points:
                if not point.completed:
                    continue
                serving = getattr(point.result.stats, "serving", None)
                if serving is None or serving.verdict != "ok":
                    continue
                p999 = serving.p999_us
                if p999 is not None and p999 <= self.slo_us:
                    knee = (point.value if knee is None
                            else max(knee, point.value))
            knees[overhead] = knee
        return knees

    def render(self) -> str:
        """SLO tables per axis plus the overhead-vs-knee summary."""
        out = [self.title, ""]
        for parameter, sweep in self.dial_sweeps.items():
            from repro.serve.sweep import serving_rows
            out.append(render_table(
                serving_rows(sweep),
                title=f"serving tail vs {parameter} "
                      f"(SLO {self.slo_us:g}us)"))
            out.append("")
        if self.knee_sweeps:
            knee_rows = [
                {"overhead_us": overhead,
                 "slo_knee_rps": ("none" if knee is None
                                  else f"{knee:g}")}
                for overhead, knee in sorted(self.knees().items())]
            out.append(render_table(
                knee_rows,
                title=f"offered load sustaining p999 <= "
                      f"{self.slo_us:g}us, by overhead"))
        return "\n".join(out).rstrip() + "\n"


def figure11_serving(n_nodes: int = 32, scale: float = 1.0,
                     overheads: Sequence[float] = (2.9, 10.0, 25.0),
                     latencies: Sequence[float] = (5.7, 30.0, 100.0),
                     drop_rates: Sequence[float] = (0.0, 0.01, 0.05),
                     offered: Optional[Sequence[float]] = None,
                     knee_overheads: Sequence[float] = (2.9, 10.0, 25.0),
                     seed: int = 0, **workload) -> Plan:
    """Figure 11: tail latency and goodput of the serving workload.

    One :class:`~repro.serve.apps.KVServe` scenario is swept along
    overhead, latency, drop rate, and offered load; then the
    offered-load sweep is repeated at each ``knee_overheads`` setting
    to locate the SLO knee.  ``scale`` multiplies the request budget;
    extra keywords override workload knobs (``service_us``,
    ``slo_us``, ...).  Fully cache-served on reruns.
    """
    from repro.serve.apps import KVServe
    params = LogGPParams.berkeley_now()
    knobs = {"offered_rps": 400_000.0, "duration_us": 20_000.0,
             "max_requests": max(50, int(round(600 * scale))),
             "n_users": 1_000_000, "service_us": 4.0, "slo_us": 250.0}
    knobs.update(workload)
    app = KVServe(**knobs)
    figure = ServingFigure(
        title=f"Figure 11 ({n_nodes} nodes): serving tail latency vs "
              f"machine dials ({app.tier().describe()})",
        slo_us=app.slo_us)
    dials = {"overhead": overheads, "latency": latencies,
             "drop_rate": drop_rates, "offered_rps": offered}
    sweeps = [run_sweep(app, n_nodes, parameter, values,
                        params=params, seed=seed)
              for parameter, values in dials.items()]
    sweeps += [run_sweep(
        app, n_nodes, "offered_rps", offered, params=params, seed=seed,
        knobs=DIALS["overhead"].knobs(overhead, params))
        for overhead in knee_overheads]
    return Plan.union(sweeps).then(lambda built: replace(
        figure, dial_sweeps=dict(zip(dials, built)),
        knee_sweeps=dict(zip(knee_overheads, built[len(dials):]))))
