"""Regenerate EXPERIMENTS.md, or run a campaign, from the command line.

Usage::

    python -m repro.harness --scale 0.5 --out EXPERIMENTS.md
    python -m repro.harness --only table2 figure7
    python -m repro.harness --scale 0.1 --apps Radix,Sample --out smoke.md

Every record of :mod:`repro.harness.artifacts` is planned at ``--nodes``
and ``--scale`` for the ``--apps`` (default: all ten), the union of
their runs drained once — each distinct run simulated once, across
``--jobs`` workers, through the run cache (``--cache-dir``,
``--no-cache``) — and the sections written in registry order to
``--out`` (default: stdout).  The claims of :mod:`repro.harness.claims`
close the report, checked on the same values, with one row each in a
``.json`` beside ``--out``; the driver exits 1 if an applicable row
fails, 2 if it refuses its arguments.  ``--only`` writes just the named
sections, each planned with the records it ``reads``, and no claims.

Campaign mode runs (or resumes) a :mod:`repro.harness.campaign` spec
from a JSON file against a sqlite result store instead::

    python -m repro.harness --campaign spec.json --store results.sqlite
    python -m repro.harness --campaign spec.json --store results.sqlite \\
        --render campaign.md --bench-out BENCH_campaign.json

Killing a campaign mid-run loses nothing: every completed point is
already in the store, and the same command resumes where it stopped.

Store maintenance prunes finished campaigns and compacts the file::

    python -m repro.harness --store-gc --store results.sqlite \\
        --prune old-campaign-1 old-campaign-2
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import textwrap
import time
from typing import Dict, List

from repro.harness import (CampaignSpec, ResultStore, claims,
                           render_campaign, run_campaign, run_plans)
from repro.harness.artifacts import REGISTRY
from repro.harness.parallel import (add_run_options, input_scale,
                                    output_path, run_options)
from repro.harness.report import markdown_table
from repro.harness.suite import suite_names

#: The report's opening, before the first section ({} is ``--scale``).
HEADER = (
    "# EXPERIMENTS — paper vs. this reproduction\n\n"
    "Regenerated with `python -m repro.harness --scale {} --out "
    "EXPERIMENTS.md`.\nAll measurements are from the discrete-event "
    "substrate at the reduced input scale\n(the benchmark default); "
    "absolute times are not comparable to the 1997 testbed, so\neach "
    "entry compares the *shape*: orderings, factors, linearity, "
    "crossovers.\n")


def app_names(text: str) -> List[str]:
    """``--apps``: refused at parse time (exit 2) as
    :func:`~repro.harness.suite.suite_names` refuses it."""
    try:
        return suite_names(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def claims_section(rows: List[Dict], nodes: int) -> str:
    """The report's last section for a report planned on ``nodes``: the
    row counts, then the failed rows."""
    counts = {status: sum(row["status"] == status for row in rows)
              for status in ("holds", "n/a", "fails")}
    failed = [(row["id"], row["measured"], row["bound"])
              for row in rows if row["status"] == "fails"]
    if nodes == claims.NODES:
        tally = (f"Of {len(rows)} rows, {counts['holds']} hold, "
                 f"{counts['n/a']} are not applicable at this scale or app "
                 f"selection, and {counts['fails']} fail.")
    else:
        tally = (f"The rows are graded on the {claims.NODES}-node machine "
                 f"only, so at {nodes} nodes all {len(rows)} are n/a.")
    text = "## Claims — the paper's shape claims, checked\n\n"
    text += textwrap.fill(
        "The `.json` file written beside this one holds one row per "
        "claim of `repro.harness.claims`: its artifact, the claim, the "
        "paper's value, the measured value, the bound and the input "
        "scale it holds at.  " + tally, 80,
        break_on_hyphens=False) + "\n"
    if failed:
        text += "\n" + markdown_table(["id", "measured", "bound"],
                                      failed) + "\n"
    return text


def run_campaign_cli(args, spec: CampaignSpec) -> int:
    """The ``--campaign`` mode: run/resume ``spec`` against a store."""
    with ResultStore(args.store) as store:
        report = run_campaign(spec, store, progress=print,
                              **run_options(args))
        print(store.describe())
        if args.bench_out is not None:
            args.bench_out.write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True)
                + "\n")
            print(f"wrote {args.bench_out}")
        if args.render is not None:
            args.render.write_text(render_campaign([spec], store))
            print(f"wrote {args.render}")
    return 0


def store_gc_cli(args) -> int:
    """The ``--store-gc`` mode: prune campaigns and compact the store."""
    with ResultStore(args.store) as store:
        if args.prune:
            for campaign in args.prune:
                removed = store.prune(campaign)
                print(f"pruned {removed} point(s) of campaign "
                      f"{campaign!r}")
        store.vacuum()
        print(f"vacuumed {store.path}")
        print(store.describe())
    return 0


def main(argv=None) -> int:
    """Parse arguments, then write the report or run the mode asked."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables, figures and claims.")
    parser.add_argument("--nodes", type=int, default=32,
                        help="cluster size (default 32, as the paper; "
                        "the claims hold at 32 only)")
    parser.add_argument("--scale", type=input_scale, default=0.5,
                        help="input scale (default 0.5)")
    parser.add_argument("--out", type=output_path, default=None,
                        help="write the report here and its claims rows "
                        "beside it as .json (default: the report to "
                        "stdout)")
    parser.add_argument("--only", nargs="+", default=None,
                        choices=sorted(name for name, artifact
                                       in REGISTRY.items()
                                       if artifact.section is not None),
                        help="write only these sections, without claims")
    parser.add_argument("--apps", type=app_names, default=None,
                        help="comma-separated subset of Table 3 app names "
                        "(reduced grid for smoke runs)")
    add_run_options(parser)
    campaign = parser.add_argument_group("campaign mode")
    campaign.add_argument("--campaign", type=pathlib.Path, default=None,
                          help="run/resume a CampaignSpec JSON file "
                          "instead of regenerating artifacts")
    campaign.add_argument("--store", type=pathlib.Path, default=None,
                          help="sqlite result store path (campaign mode)")
    campaign.add_argument("--render", type=output_path, default=None,
                          help="write store-generated campaign artifacts "
                          "to this markdown file")
    campaign.add_argument("--bench-out", type=output_path, default=None,
                          help="write the campaign's BENCH JSON here")
    campaign.add_argument("--store-gc", action="store_true",
                          help="garbage-collect the result store: prune "
                          "the campaigns named by --prune, then VACUUM")
    campaign.add_argument("--prune", nargs="*", default=None,
                          metavar="CAMPAIGN",
                          help="campaign names to delete during "
                          "--store-gc (omit to only VACUUM)")
    args = parser.parse_args(argv)

    # A flag of a mode not asked for is refused, not dropped: the whole
    # artifact set, or the campaign without it, would run in its place.
    if args.campaign is None:
        for flag, value in (("--render", args.render),
                            ("--bench-out", args.bench_out)):
            if value is not None:
                parser.error(f"{flag} needs --campaign")
        if args.store is not None and not args.store_gc:
            parser.error("--store needs --campaign or --store-gc")
    if args.campaign is not None or args.store_gc:
        for flag, value in (("--only", args.only), ("--out", args.out),
                            ("--apps", args.apps)):
            if value is not None:
                parser.error(f"{flag} writes the report; --campaign and "
                             "--store-gc do not")
    if args.prune is not None and not args.store_gc:
        parser.error("--prune needs --store-gc")
    if args.store_gc:
        if args.store is None:
            parser.error("--store-gc needs --store")
        return store_gc_cli(args)
    if args.campaign is not None:
        if args.store is None:
            parser.error("--campaign needs --store")
        try:
            spec = CampaignSpec.from_json(args.campaign.read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"--campaign {args.campaign}: {exc}")
        return run_campaign_cli(args, spec)

    if args.nodes < 2:
        parser.error(f"--nodes {args.nodes}: Table 3 and the studies also "
                     "run half the machine, so at least 2")
    if args.out is not None and args.out.suffix == ".json":
        parser.error(f"--out {args.out}: the claims rows are written to "
                     f"{args.out}; name the report something else")
    only = args.only
    names = [name for name in REGISTRY if only is None or name in only
             or any(name in REGISTRY[shown].reads for shown in only)]
    run = run_options(args)

    started = time.time()  # simlint: disable=wall-clock - footer only
    values = dict(zip(names, run_plans(
        [REGISTRY[name].planned(args.nodes, args.scale, args.apps)
         for name in names], **run)))
    out = [] if only else [HEADER.format(args.scale)]
    for name in names:
        artifact = REGISTRY[name]
        if artifact.section is not None and values[name] is not None \
                and (only is None or name in only):
            out += [f"## {artifact.heading_at(args.nodes)}\n",
                    artifact.section(values)]
    rows = []
    if not only:
        rows = claims.evaluate(values, args.scale, args.apps,
                               nodes=args.nodes)
        elapsed = time.time() - started  # simlint: disable=wall-clock - footer
        out += [claims_section(rows, args.nodes),
                f"---\n*Generated in {elapsed:.0f} s of wall-clock "
                "simulation.*"]

    # What the driver says goes where the report does not.
    report = "\n".join(out) + "\n"
    if args.out is None:
        sys.stdout.write(report)
        status = sys.stderr
    else:
        args.out.write_text(report, encoding="utf-8")
        written = [args.out]
        if not only:
            written.append(args.out.with_suffix(".json"))
            written[1].write_text(
                "[\n" + ",\n".join(json.dumps(row, ensure_ascii=False)
                                   for row in rows) + "\n]\n",
                encoding="utf-8")
        status = sys.stdout
        print("wrote " + " and ".join(map(str, written)), file=status)
    if run["cache"] is not None:
        print(run["cache"].describe(), file=status)
    failed = [row for row in rows if row["status"] == "fails"]
    for row in failed:
        print(f"claim {row['id']} fails: measured {row['measured']}, "
              f"bound {row['bound']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
