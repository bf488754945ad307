"""Print every table and figure of EXPERIMENTS.md from the command line.

Usage::

    python -m repro.harness                 # everything, default scale
    python -m repro.harness --scale 0.25 --nodes 16 --out results/
    python -m repro.harness --only table2 figure7

The artifacts are the records of :mod:`repro.harness.artifacts`, the
ones ``scripts/generate_experiments.py`` writes, planned at ``--nodes``
and ``--scale`` over the same grids; a different grid, such as the
paper's full one, is a campaign spec's dial.  Each artifact is printed
and, with ``--out``, also written to ``<out>/<artifact>.txt``.
Everything selected is planned first and its runs drained once — each
distinct run simulated once — through the on-disk run cache
(``--cache-dir``, ``--no-cache``) and ``--jobs`` worker processes, as
campaign mode's are.

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

from repro.harness import (CampaignSpec, ResultStore, render_campaign,
                           run_campaign, run_plans)
from repro.harness.artifacts import REGISTRY
from repro.harness.parallel import add_run_options, input_scale, run_options

#: The artifacts ``--only`` names: the registry's printable records.
CLI_NAMES = [name for name, artifact in REGISTRY.items() if artifact.cli]


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
    """Parse arguments, regenerate the selected artifacts."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("--nodes", type=int, default=32,
                        help="cluster size (default 32, as the paper)")
    parser.add_argument("--scale", type=input_scale, default=0.5,
                        help="input scale (default 0.5)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to write <artifact>.txt files")
    parser.add_argument("--only", nargs="*", default=None,
                        choices=sorted(CLI_NAMES),
                        help="subset of artifacts to regenerate")
    add_run_options(parser)
    campaign = parser.add_argument_group("campaign mode")
    campaign.add_argument("--campaign", type=pathlib.Path, default=None,
                          help="run/resume a CampaignSpec JSON file "
                          "instead of regenerating artifacts")
    campaign.add_argument("--store", type=pathlib.Path, default=None,
                          help="sqlite result store path (campaign mode)")
    campaign.add_argument("--render", type=pathlib.Path, default=None,
                          help="write store-generated campaign artifacts "
                          "to this markdown file")
    campaign.add_argument("--bench-out", type=pathlib.Path, default=None,
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
    # artifact set would run in its place.
    if args.campaign is None:
        for flag, value in (("--render", args.render),
                            ("--bench-out", args.bench_out)):
            if value is not None:
                parser.error(f"{flag} needs --campaign")
        if args.store is not None and not args.store_gc:
            parser.error("--store needs --campaign or --store-gc")
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
    selected = args.only if args.only else CLI_NAMES
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    run = run_options(args)

    artifacts = run_plans([REGISTRY[name].planned(args.nodes, args.scale)
                           for name in selected], **run)
    for name, artifact in zip(selected, artifacts):
        text = artifact.render()
        print(f"\n{'=' * 72}\n{name}\n")
        print(text)
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text + "\n")
    if run["cache"] is not None:
        print(run["cache"].describe())
    return 0


if __name__ == "__main__":
    sys.exit(main())
