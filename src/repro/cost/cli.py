"""``python -m repro.cost`` — record, predict, report.

Follows the analysis-CLI contract (see ``repro.analysis.cli``):

* exit 0 — success (and, for ``report``, the error gate holds);
* exit 1 — ``report``'s median relative error exceeded the gate;
* exit 2 — usage error (argparse's convention), an application name
  the suite does not have, or a graph file ``predict`` cannot read,
  parse or replay (one line on stderr).

Subcommands::

    python -m repro.cost record --app Radix --nodes 8 --out radix.json
    python -m repro.cost predict radix.json --parameter overhead
    python -m repro.cost report --apps Radix,Sample --nodes 8 \\
        --parameter overhead --max-median-error 0.10 --format json

``record`` runs one instrumented simulation and writes the dependency
graph; ``predict`` replays a graph over a dial grid (no simulation at
all); ``report`` does both *and* simulates the same grid, the recording
being the grid's baseline point (one drain, served from the RunCache
when warm), to print per-point relative errors — the validation loop CI
gates on.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.am.layer import DEFAULT_WINDOW
from repro.cost.graph import CostGraph
from repro.cost.predict import (latency_tolerance, lp_bound,
                                predict_sweep)
from repro.cost.recorder import record_run
from repro.harness.experiments import (predicted_figure, prediction_errors,
                                       recorded_suite, sensitivity_figure)
from repro.harness.parallel import add_run_options, run_options, run_plans
from repro.harness.suite import suite_for
from repro.harness.sweeps import DIALS, MACHINE_DIALS

__all__ = ["main"]


def _dial_values(text: str) -> List[float]:
    """``--values``: comma-separated finite numbers, at least one."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of numbers") from None
    if not values or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(
            f"{text!r} needs one or more finite numbers")
    return values


def _finite(text: str) -> float:
    """``--threshold`` / ``--max-median-error``: a finite number; a NaN
    gate would pass every report."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _emit(payload: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


# -- record -----------------------------------------------------------------

def _cmd_record(args) -> int:
    try:
        app, = suite_for(args.nodes, scale=args.scale, names=[args.app])
    except KeyError as exc:
        print(f"record: {exc.args[0]}", file=sys.stderr)
        return 2
    graph, _result = record_run(app, args.nodes, seed=args.seed,
                                window=args.window)
    payload = graph.to_dict()
    if args.out is not None:
        args.out.write_text(json.dumps(payload) + "\n")
        print(f"{graph.describe()}\nwrote {args.out}")
    else:
        print(json.dumps(payload))
    return 0


# -- predict ----------------------------------------------------------------

def _cmd_predict(args) -> int:
    values = args.values or list(DIALS[args.parameter].reduced)
    try:
        graph = CostGraph.from_json(args.graph.read_text())
        sweep = predict_sweep(graph, args.parameter, values)
        tolerance = latency_tolerance(graph, args.parameter,
                                      threshold=args.threshold)
        baseline_bound = lp_bound(graph)
    except (OSError, ValueError) as exc:  # UnsupportedGraphError included
        print(f"predict: {args.graph}: {exc}", file=sys.stderr)
        return 2
    payload = {
        "schema": "repro-simcost-predict-v1",
        "app": graph.app_name,
        "n_nodes": graph.n_nodes,
        "parameter": args.parameter,
        "points": [{"value": p.value, "runtime_us": round(p.runtime_us, 3),
                    "slowdown": round(s, 4)}
                   for p, s in zip(sweep.points, sweep.slowdowns())],
        "latency_tolerance": tolerance,
        "threshold": args.threshold,
        "lp_bound_us": round(baseline_bound, 3),
        "simulations_used": 0,
    }
    lines = [f"{graph.app_name} (P={graph.n_nodes}): predicted "
             f"{args.parameter} sweep"]
    for point in payload["points"]:
        lines.append(f"  {args.parameter}={point['value']:<8g} "
                     f"runtime={point['runtime_us']:<12.1f} "
                     f"slowdown={point['slowdown']:.2f}")
    cross = "never crosses" if tolerance is None else f"{tolerance:g}"
    lines.append(f"  {args.threshold:g}x tolerance: {cross}; "
                 f"LP bound at baseline: {baseline_bound:.1f} us")
    _emit(payload, "\n".join(lines), args.format)
    return 0


# -- report -----------------------------------------------------------------

def _cmd_report(args) -> int:
    names = [part.strip() for part in args.apps.split(",") if part.strip()]
    if not names:
        print("report: --apps named no applications", file=sys.stderr)
        return 2
    try:
        recorded = recorded_suite.plan(args.nodes, scale=args.scale,
                                       names=names, seed=args.seed)
    except KeyError as exc:
        print(f"report: {exc.args[0]}", file=sys.stderr)
        return 2
    values = args.values or list(DIALS[args.parameter].reduced)
    # One recording per app predicts the grid; the simulated side is the
    # same grid's Figure 5-8 study, whose baseline points the recordings
    # are: one drain (cache-served when warm).
    graphs, simulated = run_plans([recorded, sensitivity_figure.plan(
        args.parameter, n_nodes=args.nodes, scale=args.scale, names=names,
        values=values, seed=args.seed)], **run_options(args))
    predicted = predicted_figure(graphs, args.parameter, values)
    errors = prediction_errors(predicted, simulated)
    app_medians = {
        name: prediction_errors(replace(predicted, sweeps={name: sweep}),
                                simulated).median
        for name, sweep in predicted.sweeps.items()}
    rows = [{"app": app, args.parameter: value, "simulated": sim,
             "predicted": round(pred, 4),
             "rel_err": None if err is None else round(err, 4),
             "median_rel_err": (None if app_medians[app] is None
                                else round(app_medians[app], 4))}
            for app, value, sim, pred, err in errors.rows]
    median = errors.median
    recordings = len(graphs)
    payload = {
        "schema": "repro-simcost-bench-v1",
        "parameter": args.parameter,
        "n_nodes": args.nodes,
        "scale": args.scale,
        "recordings": recordings,
        "predicted_points": len(rows),
        "simulations_classic": len(rows),
        "simulations_avoided_ratio": (
            round(len(rows) / recordings, 2) if recordings else None),
        "median_rel_err": None if median is None else round(median, 4),
        "max_median_error": args.max_median_error,
        "rows": rows,
    }
    text = errors.render()
    if median is not None:
        text += (f"\n\nmedian relative error: {median * 100:.1f}% "
                 f"(gate: {args.max_median_error * 100:.0f}%)")
    _emit(payload, text, args.format)
    if args.bench_out is not None:
        args.bench_out.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.bench_out}", file=sys.stderr)
    if median is not None and median > args.max_median_error:
        return 1
    return 0


# -- argument parsing --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cost",
        description="simcost: predict dial sweeps from one recorded run.")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record",
                            help="run one instrumented simulation and "
                            "write its dependency graph")
    record.add_argument("--app", required=True,
                        help="application name (as in the suite)")
    record.add_argument("--nodes", type=int, default=8)
    record.add_argument("--scale", type=float, default=1.0)
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    record.add_argument("--out", type=pathlib.Path, default=None,
                        help="graph JSON path (default: stdout)")

    predict = sub.add_parser("predict",
                             help="replay a recorded graph over a dial "
                             "grid (no simulation)")
    predict.add_argument("graph", type=pathlib.Path,
                         help="graph JSON written by `record`")
    predict.add_argument("--parameter", default="overhead",
                         choices=sorted(MACHINE_DIALS))
    predict.add_argument("--values", type=_dial_values, default=None,
                         help="comma-separated dial values "
                         "(default: the reduced grid)")
    predict.add_argument("--threshold", type=_finite, default=2.0,
                         help="slowdown threshold for the tolerance "
                         "metric (default 2.0)")
    predict.add_argument("--format", choices=("text", "json"),
                         default="text")

    report = sub.add_parser("report",
                            help="record + predict + simulate the same "
                            "grid; gate on median relative error")
    report.add_argument("--apps", required=True,
                        help="comma-separated application names")
    report.add_argument("--nodes", type=int, default=8)
    report.add_argument("--scale", type=float, default=1.0)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--parameter", default="overhead",
                        choices=sorted(MACHINE_DIALS))
    report.add_argument("--values", type=_dial_values, default=None,
                        help="comma-separated dial values "
                        "(default: the reduced grid)")
    report.add_argument("--max-median-error", type=_finite, default=0.10)
    add_run_options(report)
    report.add_argument("--bench-out", type=pathlib.Path, default=None,
                        help="also write the report payload as a BENCH "
                        "JSON file")
    report.add_argument("--format", choices=("text", "json"),
                        default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "record":
        return _cmd_record(args)
    if args.command == "predict":
        return _cmd_predict(args)
    return _cmd_report(args)
