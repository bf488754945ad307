"""``python -m repro.cost`` — record a run's dependency graph, predict
dial sweeps from it.

Follows the analysis-CLI contract (see ``repro.analysis.cli``):

* exit 0 — success;
* exit 2 — usage error (argparse's convention, an output directory
  that does not exist included), an application name the suite does
  not have, or a graph file ``predict`` cannot read, parse or replay
  (one line on stderr).

Subcommands::

    python -m repro.cost record --app Radix --nodes 8 --out radix.graph
    python -m repro.cost predict radix.graph --parameter overhead

``record`` runs one instrumented simulation and writes the dependency
graph (an ``.npz``, :meth:`~repro.cost.graph.CostGraph.save`);
``predict`` replays a graph over a dial grid (no simulation at
all).  How close the prediction comes to the simulated sweeps is graded
by ``python -m repro.harness``: its ``predict.*`` claims rows hold each
machine dial's median relative error over Figures 5-8's grids.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import List, Optional, Sequence

from repro.am.layer import DEFAULT_WINDOW
from repro.cost.graph import CostGraph
from repro.cost.predict import (latency_tolerance, lp_bound,
                                predict_sweep)
from repro.cost.recorder import record_run
from repro.harness.parallel import at_least, input_scale, output_path
from repro.harness.suite import suite_for
from repro.harness.sweeps import DIALS, MACHINE_DIALS
from repro.network.loggp import LogGPParams

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
    """``--threshold``: a finite number; a NaN one would be blamed on
    the graph file."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


# -- record -----------------------------------------------------------------

def _cmd_record(args) -> int:
    try:
        app, = suite_for(args.nodes, scale=args.scale, names=[args.app])
    except KeyError as exc:
        print(f"record: {exc.args[0]}", file=sys.stderr)
        return 2
    graph, _result = record_run(app, args.nodes, seed=args.seed,
                                window=args.window)
    with args.out.open("wb") as fh:
        graph.save(fh)
    print(f"{graph.describe()}\nwrote {args.out}")
    return 0


# -- predict ----------------------------------------------------------------

def _cmd_predict(args) -> int:
    values = args.values or list(DIALS[args.parameter].reduced)
    try:
        graph = CostGraph.load(args.graph)
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
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
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
    record.add_argument("--nodes", type=at_least(1), default=8)
    record.add_argument("--scale", type=input_scale, default=1.0)
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--window", type=at_least(1), default=DEFAULT_WINDOW)
    record.add_argument("--out", type=output_path, required=True,
                        help="graph file to write")

    predict = sub.add_parser("predict",
                             help="replay a recorded graph over a dial "
                             "grid (no simulation)")
    predict.add_argument("graph", type=pathlib.Path,
                         help="graph file written by `record`")
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A value the dial cannot be turned to (a bandwidth of 0) is refused
    # here, not blamed on the graph file.
    for value in getattr(args, "values", None) or ():
        try:
            DIALS[args.parameter].knobs(value, LogGPParams.berkeley_now())
        except ValueError as exc:
            parser.error(f"argument --values: {exc}")
    if args.command == "record":
        return _cmd_record(args)
    return _cmd_predict(args)
