"""Regenerate every table and figure of the paper from the command line.

Usage::

    python -m repro.harness                 # everything, default scale
    python -m repro.harness --scale 0.25 --nodes 16 --out results/
    python -m repro.harness --only table2 figure7

Each artifact is printed and, with ``--out``, also written to
``<out>/<artifact>.txt``.  Everything selected is planned first and its
runs drained once — each distinct run simulated once — through the
on-disk run cache (``--cache-dir``, ``--no-cache``) and ``--jobs``
worker processes, as campaign mode's are.

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

from repro.harness import (CampaignSpec, Plan, ResultStore, experiments,
                           overhead_gap_surface, render_campaign,
                           run_campaign, run_plans)
from repro.harness.parallel import add_run_options, run_options


def _sized(entry, *args):
    """The plan of an artifact whose study takes (n_nodes, scale) after
    ``args`` (the dial of a sensitivity figure)."""
    return lambda nodes, scale: entry.plan(*args, n_nodes=nodes,
                                           scale=scale)


def _unplanned(entry):
    """The plan of an artifact that runs nothing through the drain (the
    microbenchmarks): no tasks, computed when it is built."""
    return lambda nodes, scale: Plan((), lambda _points: entry())


#: artifact name -> callable(n_nodes, scale) -> the :class:`Plan` of an
#: object with .render().
ARTIFACTS = {
    "table1": _unplanned(experiments.table1_baseline_params),
    "figure3": _unplanned(experiments.figure3_signature),
    "table2": _unplanned(experiments.table2_calibration),
    "table3": lambda nodes, scale:
        experiments.table3_baseline_runtimes.plan(
            node_counts=(nodes // 2, nodes), scale=scale),
    "figure4": _sized(experiments.figure4_balance),
    "table4": _sized(experiments.table4_comm_summary),
    "figure5": _sized(experiments.sensitivity_figure, "overhead"),
    "table5": _sized(experiments.table5_overhead_model),
    "figure6": _sized(experiments.sensitivity_figure, "gap"),
    "table6": _sized(experiments.table6_gap_model),
    "figure7": _sized(experiments.sensitivity_figure, "latency"),
    "figure8": _sized(experiments.sensitivity_figure, "bulk_mb_s"),
    "figure9": _sized(experiments.sensitivity_figure, "drop_rate"),
    "table7": _sized(experiments.table7_spike_decay),
    "figure10": lambda nodes, scale:
        experiments.figure10_collectives.plan(n_nodes=nodes),
    "table8": lambda nodes, scale:
        experiments.table8_collectives.plan(n_nodes=nodes),
    "figure11": _sized(experiments.figure11_serving),
    "surface": lambda nodes, scale: overhead_gap_surface.plan(
        n_nodes=min(nodes, 16), scale=scale),
    # simcost: the overhead sweep predicted from one recorded run per
    # app (figure5's baseline point) instead of one simulation per
    # (app, value) point.
    "predict": lambda nodes, scale: experiments.recorded_suite.plan(
        nodes, scale=scale).then(
        lambda graphs: experiments.predicted_figure(graphs, "overhead")),
}


def run_campaign_cli(args) -> int:
    """The ``--campaign`` mode: run/resume a spec file against a store."""
    spec = CampaignSpec.from_json(args.campaign.read_text())
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
    parser.add_argument("--scale", type=float, default=0.5,
                        help="input scale (default 0.5)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="directory to write <artifact>.txt files")
    parser.add_argument("--only", nargs="*", default=None,
                        choices=sorted(ARTIFACTS),
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

    if args.store_gc:
        if args.store is None:
            parser.error("--store-gc needs --store")
        return store_gc_cli(args)
    if args.campaign is not None:
        if args.store is None:
            parser.error("--campaign needs --store")
        return run_campaign_cli(args)

    selected = args.only if args.only else list(ARTIFACTS)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    run = run_options(args)

    artifacts = run_plans([ARTIFACTS[name](args.nodes, args.scale)
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
