#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact.

Every table, figure and claims-only study is a record of
:mod:`repro.harness.artifacts`.  Each record is planned at 32 nodes, the
union of their runs is drained once — each distinct run simulated once,
across ``--jobs`` worker processes, through the on-disk run cache
(``~/.cache/repro`` unless ``REPRO_CACHE_DIR`` / ``--cache-dir`` says
otherwise) — and the sections are written in registry order.  The
paper's claims (:mod:`repro.harness.claims`) are checked on the same
built values, one row each in a JSON file beside ``--out``
(``EXPERIMENTS.json``).  The script writes both files, then exits 1 if
an applicable row fails; it exits 2 if it refuses its arguments.

Usage:
    python scripts/generate_experiments.py [--scale 0.5] [--out EXPERIMENTS.md]
        [--jobs N] [--no-cache] [--cache-dir DIR] [--apps Radix,Sample,...]

``--jobs`` defaults to one worker per core; the output is the same at
any ``--jobs``.  To profile, run it under ``python -m cProfile -s
cumulative`` with ``--jobs 1``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import textwrap
import time
from typing import List

from repro.harness import claims, run_plans
from repro.harness.artifacts import REGISTRY
from repro.harness.parallel import add_run_options, input_scale, run_options
from repro.harness.report import markdown_table
from repro.harness.suite import suite_names


def app_names(text: str) -> List[str]:
    """``--apps``: refused at parse time (exit 2) as
    :func:`~repro.harness.suite.suite_names` refuses it."""
    try:
        return suite_names(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=input_scale, default=0.5)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    add_run_options(parser)
    parser.add_argument("--apps", type=app_names, default=None,
                        help="comma-separated subset of Table 3 app names "
                        "(reduced grid for smoke runs)")
    args = parser.parse_args(argv)
    json_out = pathlib.Path(args.out).with_suffix(".json")
    if json_out == pathlib.Path(args.out):
        parser.error(f"--out {args.out}: the claims rows are written to "
                     f"{json_out}; name the report something else")
    scale = args.scale
    run = run_options(args)
    cache = run["cache"]

    started = time.time()  # simlint: disable=wall-clock - footer only
    values = dict(zip(REGISTRY, run_plans(
        [artifact.planned(32, scale, args.apps)
         for artifact in REGISTRY.values()], **run)))
    rows = claims.evaluate(values, scale, args.apps)

    out = [
        "# EXPERIMENTS — paper vs. this reproduction\n",
        "Regenerated with `python scripts/generate_experiments.py "
        f"--scale {scale}`.",
        "All measurements are from the discrete-event substrate at the "
        "reduced input scale\n(the benchmark default); absolute times are "
        "not comparable to the 1997 testbed, so\neach entry compares the "
        "*shape*: orderings, factors, linearity, crossovers.\n"]
    for artifact in REGISTRY.values():
        if artifact.section is not None and values[artifact.name] is not None:
            out += [f"## {artifact.heading}\n", artifact.section(values)]

    counts = {status: sum(row["status"] == status for row in rows)
              for status in ("holds", "n/a", "fails")}
    failed = [row for row in rows if row["status"] == "fails"]
    out.append("## Claims — the paper's shape claims, checked\n")
    out.append(textwrap.fill(
        "The `.json` file written beside this one holds one row per "
        "claim of `repro.harness.claims`: its artifact, the claim, the "
        "paper's value, the measured value, the bound and the input "
        f"scale it holds at.  Of {len(rows)} rows, {counts['holds']} hold, "
        f"{counts['n/a']} are not applicable at this scale or app "
        f"selection, and {counts['fails']} fail.", 80,
        break_on_hyphens=False) + "\n")
    if failed:
        out += [markdown_table(["id", "measured", "bound"], [
            (row["id"], row["measured"], row["bound"]) for row in failed]),
            ""]

    elapsed = time.time() - started  # simlint: disable=wall-clock - footer
    out.append(f"---\n*Generated in {elapsed:.0f} s of wall-clock "
               "simulation.*")

    with open(args.out, "w") as fh:
        fh.write("\n".join(out) + "\n")
    with open(json_out, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row, ensure_ascii=False)
                                     for row in rows) + "\n]\n")
    message = f"wrote {args.out} and {json_out} in {elapsed:.0f}s"
    if cache is not None:
        message += f" [{cache.describe()}]"
    print(message)
    for row in failed:
        print(f"claim {row['id']} fails: measured {row['measured']}, "
              f"bound {row['bound']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
