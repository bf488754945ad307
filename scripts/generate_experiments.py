#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every artifact.

Runs the complete evaluation at the benchmark scale and writes a
markdown report pairing each of the paper's headline numbers with this
reproduction's measurements.

The tables and figures share runs (Table 3's baselines are every
sweep's first point), so everything is planned first, the union of the
plans' runs is drained once — each distinct run simulated once, across
``--jobs`` worker processes — and the artifacts are rendered afterwards.
Completed points are memoised in the on-disk run cache
(``~/.cache/repro`` unless ``REPRO_CACHE_DIR`` / ``--cache-dir`` says
otherwise), so re-running the script only simulates configurations it
has never seen.

The simcost section predicts Figures 5b-8 from one recording per
application.  A recording is the app's 32-node Figure 5 baseline run,
planned with its dependency graph asked for, so it drains (and caches)
with the figures it is checked against and simulates nothing else.
Resumable, store-backed campaigns are ``python -m repro.harness
--campaign spec.json --store S``.

The paper's claims (:mod:`repro.harness.claims`) are checked on the
same drained artifacts, plus the extension studies and ablations that
only claims read.  Every row goes to a JSON file beside ``--out``
(``EXPERIMENTS.json``); the script writes both files, then exits 1 if
any applicable row fails.

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
from types import SimpleNamespace

from repro.am.tuning import TuningKnobs
from repro.calibrate import calibrate_bulk_bandwidth, round_trip_time
from repro.calibrate.calibration import calibrate_machine
from repro.harness import (DIALS, MACHINE_DIALS, Plan, claims, experiments,
                           overhead_gap_surface, run_plans)
from repro.harness.extensions import (burst_ablation, investment_study,
                                      occupancy_study, scaling_study,
                                      window_scope_ablation)
from repro.harness.parallel import add_run_options, run_options
from repro.harness.sweeps import measure_algorithms
from repro.network.loggp import LogGPParams

PAPER = claims.PAPER


def fmt(value, digits=2):
    if value is None:
        return "N/A"
    return f"{value:.{digits}f}"


#: The reduced sensitivity grids the EXPERIMENTS report sweeps, dial →
#: value sequence (baseline first).
SWEEP_GRIDS = {name: dial.reduced for name, dial in DIALS.items()
               if dial.reduced is not None}

#: The collective model's validation grid: (P, bulk MB/s) blocks of
#: (primitive, size) cells, checked by the ``coll.grid_agreement`` row.
COLL_GRID = [(n_nodes, mb_s) for n_nodes in (4, 8, 16)
             for mb_s in (38.0, 4.0)]
PRIMITIVES = ("broadcast", "allreduce", "allgather", "alltoall")


def coll_grid_plan() -> Plan:
    """Every COLL_GRID block's :func:`experiments.model_picks` rows."""
    now = LogGPParams.berkeley_now()

    def block(n_nodes, mb_s):
        knobs = TuningKnobs.bulk_bandwidth(mb_s, now)
        return measure_algorithms.plan(
            n_nodes, (32, 4096, 65536), PRIMITIVES, knobs=knobs, seed=9,
            iterations=2).then(
            lambda cells: experiments.model_picks(cells, n_nodes, knobs))
    return Plan.union([block(*cell) for cell in COLL_GRID]).then(
        lambda blocks: [row for rows in blocks for row in rows])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    add_run_options(parser)
    parser.add_argument("--apps", default=None,
                        help="comma-separated subset of Table 3 app names "
                        "(reduced grid for smoke runs)")
    args = parser.parse_args(argv)
    scale = args.scale
    run = run_options(args)
    cache = run["cache"]
    selected = None if args.apps is None else \
        [name.strip() for name in args.apps.split(",") if name.strip()]

    def chosen(*names):
        """Intersect a hard-coded app list with the --apps selection."""
        if selected is None:
            return list(names)
        return [name for name in names if name in selected]

    started = time.time()  # simlint: disable=wall-clock - footer only

    suite = {"scale": scale, "names": selected}
    t1 = experiments.table1_baseline_params()
    sig = experiments.figure3_signature(desired_gap=14.0)
    t2 = experiments.table2_calibration(desired_o=SWEEP_GRIDS["overhead"],
                                        desired_g=SWEEP_GRIDS["gap"],
                                        desired_L=SWEEP_GRIDS["latency"])

    def figure(dial, n_nodes=32):
        return experiments.sensitivity_figure.plan(
            dial, n_nodes=n_nodes, values=SWEEP_GRIDS[dial], **suite)
    plans = [
        experiments.table3_baseline_runtimes.plan(node_counts=(16, 32),
                                                  **suite),
        experiments.table4_comm_summary.plan(n_nodes=32, **suite),
        experiments.figure4_balance.plan(
            n_nodes=32, scale=scale,
            names=chosen("Radix", "EM3D(write)", "Sample", "NOW-sort")),
        figure("overhead", n_nodes=16),
        figure("overhead"),
        experiments.table5_overhead_model.plan(
            n_nodes=32, scale=scale, values=SWEEP_GRIDS["overhead"],
            names=chosen("Radix", "EM3D(write)", "Sample", "NOW-sort",
                       "Radb")),
        figure("gap"),
        experiments.table6_gap_model.plan(
            n_nodes=32, scale=scale, values=SWEEP_GRIDS["gap"],
            names=chosen("Radix", "EM3D(write)", "Sample", "NOW-sort",
                       "Connect")),
        figure("latency"),
        figure("bulk_mb_s"),
        figure("drop_rate"),
        experiments.table7_spike_decay.plan(
            n_nodes=32, scale=scale, duration_us=500.0,
            starts=(0.0, 500.0, 2000.0),
            names=chosen("Radix", "EM3D(write)", "Sample", "NOW-sort")),
        experiments.figure10_collectives.plan(
            n_nodes=32, primitives=("broadcast", "allreduce"),
            parameter="bulk_mb_s", values=(38.0, 15.0, 5.5, 1.0),
            size=16384, iterations=2),
        experiments.table8_collectives.plan(
            n_nodes=32, sizes=(32, 1024, 16384, 65536), iterations=2),
        experiments.figure11_serving.plan(n_nodes=32, scale=scale),
        # simcost's recordings: Figure 5's 32-node baselines, recorded.
        experiments.recorded_suite.plan(32, **suite),
    ]

    def only_with(name, plan):
        """``plan``, or nothing if --apps leaves out ``name`` (the
        claims about that app are then N/A)."""
        return plan if chosen(name) else Plan((), lambda _points: None)
    # The extension studies and ablations the claims read.
    studies = {
        "surface": only_with("Sample", overhead_gap_surface.plan(
            n_nodes=16, values=(25.0, 100.0), scale=scale)),
        "scaling": only_with("Radix", scaling_study.plan(
            node_counts=(16, 32), delta_o=100.0, scale=scale)),
        "investment": only_with("Sample", investment_study.plan(
            n_nodes=16, scale=scale)),
        "occupancy": only_with("EM3D(read)", occupancy_study.plan(
            n_nodes=16, values=(0.0, 10.0, 25.0, 50.0), scale=scale)),
        "coll_grid": coll_grid_plan(),
        "window_scope": window_scope_ablation.plan(),
        "burst": burst_ablation.plan(),
    }
    results = run_plans(plans + list(studies.values()), **run)
    (t3, t4, fig4, fig5_16, fig5_32, t5, fig6, t6, fig7, fig8, fig9, t7,
     fig10, t8, fig11, graphs) = results[:len(plans)]
    # Calibration, like Tables 1-2: outside the drain.
    rtt = round_trip_time(knobs=TuningKnobs.added_gap(14.0 - 5.8))
    windows = {window: calibrate_machine("L", (105.0,),
                                         window=window)[0].measured.gap
               for window in (4, 8, 16)}
    built = SimpleNamespace(
        t1=t1, sig=sig, rtt=rtt, t2=t2, windows=windows, t3=t3, t4=t4,
        fig5_16=fig5_16, fig5_32=fig5_32, t5=t5, fig6=fig6, t6=t6,
        fig7=fig7, fig8=fig8, t8=t8,
        **dict(zip(studies, results[len(plans):])))
    rows = claims.evaluate(built, scale, selected)

    out = []
    w = out.append

    w("# EXPERIMENTS — paper vs. this reproduction\n")
    w("Regenerated with `python scripts/generate_experiments.py "
      f"--scale {scale}`.")
    w("All measurements are from the discrete-event substrate at the "
      "reduced input scale\n(the benchmark default); absolute times are "
      "not comparable to the 1997 testbed, so\neach entry compares the "
      "*shape*: orderings, factors, linearity, crossovers.\n")

    # ---- Table 1 ---------------------------------------------------------
    w("## Table 1 — baseline LogGP parameters\n")
    w("| platform | paper (o, g, L, MB/s) | measured (o, g, L, MB/s) |")
    w("|---|---|---|")
    for row in t1.rows():
        name = row["Platform"]
        p = PAPER[f"t1.{name}"]
        w(f"| {name} | {p[0]}, {p[1]}, {p[2]}, {p[3]} | "
          f"{row['o (us)']}, {row['g (us)']}, {row['L (us)']}, "
          f"{row['MB/s (1/G)']} |")
    w("\nVerdict: the microbenchmarks recover every machine's dialed "
      "parameters; g reads\nslightly low from finite bursts, as the "
      "paper also observed.\n")

    # ---- Figure 3 --------------------------------------------------------
    w("## Figure 3 — LogP signature (g dialed to 14 µs)\n")
    w("```\n" + sig.render() + "\n```")
    w(f"- paper: o_send ≈ {PAPER['f3.send_overhead']} µs; measured: "
      f"{fmt(sig.send_overhead())} µs")
    w(f"- paper: steady-state g ≈ {PAPER['f3.steady_gap']} µs (desired "
      f"14); measured: {fmt(sig.steady_state(0.0))} µs")
    w(f"- paper: Δ=10 plateau at o_send+o_recv+Δ ≈ "
      f"{PAPER['f3.delta10_plateau']} µs; measured: "
      f"{fmt(sig.steady_state(10.0))} µs\n")

    # ---- Table 2 ---------------------------------------------------------
    w("## Table 2 — calibration of the dials\n")
    w("```\n" + t2.render() + "\n```")
    w("Shape checks (all reproduce the paper):")
    w("- each dial hits its target; the other parameters hold still;")
    w("- large o drives effective g toward 2·o (processor becomes the "
      "bottleneck);")
    w("- large L drives effective g toward RTT/window (fixed "
      "flow-control capacity —\n  the paper's "
      f"{PAPER['t2.large_L_gap_rtt_window']} µs at L=105; ours: "
      f"{fmt([r for r in t2.rows_ if r.dialed == 'L'][-1].measured.gap)}"
      " µs).\n")

    # ---- Table 3 ---------------------------------------------------------
    w("## Table 3 — base runtimes, fixed input, 16 vs 32 nodes\n")
    w("| program | paper 16/32-node (s) | measured 16/32-node (ms) | "
      "measured speedup |")
    w("|---|---|---|---|")
    for name, by_nodes in t3.runtimes.items():
        p16, p32 = PAPER[f"t3.{name}"]
        m16 = by_nodes[16] / 1000.0
        m32 = by_nodes[32] / 1000.0
        w(f"| {name} | {p16} / {p32} | {fmt(m16)} / {fmt(m32)} | "
          f"{fmt(m16 / m32)}x |")
    w("\nVerdict: all ten applications complete with validated outputs "
      "at both sizes; the\ndata-parallel apps speed up going 16→32 "
      "while Radix's histogram serialization\n(∝ radix × P) caps its "
      "speedup at reduced key counts — the Section 5.1 effect.\n")

    # ---- Figure 4 / Table 4 ----------------------------------------------
    w("## Table 4 — communication summary (32 nodes)\n")
    w("```\n" + t4.render() + "\n```")
    w("Paper-vs-measured orderings that hold: Radix/EM3D(write)/Sample "
      "are the most\nfrequent communicators and NOW-sort the least; "
      "EM3D(read)/P-Ray/Connect are\nread-dominated (paper: 97/96/67%); "
      "P-Ray/Barnes/NOW-sort/Radb carry the bulk\ntraffic (paper: "
      "48/23/50/35%).\n")

    w("## Figure 4 — communication balance (selected matrices)\n")
    for name, result in fig4.results.items():
        w("```\n" + result.render_balance() + "\n```")
    w("Reproduced features: Radix's dark off-diagonal ring (the "
      "pipelined cyclic-shift\nhistogram) over a balanced background; "
      "EM3D's near-diagonal swath; Sample's\nuneven columns; NOW-sort's "
      "solid balanced square.\n")

    # ---- Figures 5-8 + Tables 5-6 ------------------------------------------
    w("## Figure 5 — sensitivity to overhead\n")
    w("```\n" + fig5_32.render() + "\n```")
    w("| app | paper max slowdown (32n, o≈103) | measured 16n | "
      "measured 32n |")
    w("|---|---|---|---|")
    for name in fig5_32.sweeps:
        w(f"| {name} | {PAPER[f'f5.max.{name}']} | "
          f"{fmt(fig5_16.max_slowdown(name))}x | "
          f"{fmt(fig5_32.max_slowdown(name))}x |")
    if "Radix" in fig5_32.sweeps:
        # The scaling study's runs are these sweeps' o = 2.9 and 102.9.
        residual16, residual32 = (built.scaling.serial_residual(n_nodes)
                                  for n_nodes in (16, 32))
        w(f"\nSerialization effect: the 2·m·Δo model under-predicts Radix "
          f"by {fmt((residual16 - 1) * 100, 0)}% on 16\nnodes and "
          f"{fmt((residual32 - 1) * 100, 0)}% on 32 nodes — the serial "
          "residual grows with P, the paper's\nSection 5.1 analysis.  (At "
          "the paper's 16M keys the effect also flips the raw\nslowdown "
          "ratio, 57x vs ~25x; at reduced key counts the distribution "
          "term shrinks\nfaster than at full scale, so only the residual "
          "direction reproduces.)  Response\nis linear for every app, as "
          "in the paper.\nDivergence: our Barnes completes "
          "under high overhead (lock retries are paced by\nfull round "
          "trips, so the retry storm stays bounded at our body counts); "
          "the\nfailed-lock-attempt counter and the livelock budget "
          "reproduce the paper's\ndiagnostic, but the emergent livelock "
          "itself needs the paper's 1M-body scale.\n")

    w("## Table 5 — overhead model (r + 2·m·Δo)\n")
    w("```\n" + t5.render() + "\n```")
    w("As in the paper: accurate for the frequently communicating, "
      "well-parallelised\napps (Sample, EM3D(write)); under-predicts "
      "Radix at high overhead (the serial\nhistogram phase the "
      "busiest-processor model cannot see).\n")

    w("## Figure 6 — sensitivity to gap\n")
    w("```\n" + fig6.render() + "\n```")
    w("| app | paper slowdown at g=105 | measured |")
    w("|---|---|---|")
    for name in fig6.sweeps:
        w(f"| {name} | {PAPER[f'f6.max.{name}']} | "
          f"{fmt(fig6.max_slowdown(name))}x |")
    w("\nFrequent communicators are hit hard; light communicators "
      "shrug — and the\nresponse is linear (bursty traffic), which is "
      "why the burst model fits.\n")

    w("## Table 6 — burst gap model (r + m·Δg)\n")
    w("```\n" + t6.render() + "\n```")
    w("Tracks the heavy communicators; over-predicts overall since not "
      "every message\nis sent inside a burst — both as in the paper.\n")

    w("## Figure 7 — sensitivity to latency\n")
    w("```\n" + fig7.render() + "\n```")
    w("| app | paper slowdown at L=105 | measured |")
    w("|---|---|---|")
    for name in fig7.sweeps:
        w(f"| {name} | {PAPER[f'f7.max.{name}']} | "
          f"{fmt(fig7.max_slowdown(name))}x |")
    w("\nThe ordering flips from message frequency to *read* frequency: "
      "EM3D(read) tops\nthe chart, the write-based sorts barely react. "
      "Latency matters least of the four\nparameters, as the paper "
      "concludes.\n")

    w("## Figure 8 — sensitivity to bulk bandwidth\n")
    w("```\n" + fig8.render() + "\n```")
    w("| app | measured slowdown at 1 MB/s |")
    w("|---|---|")
    for name in fig8.sweeps:
        w(f"| {name} | {fmt(fig8.max_slowdown(name))}x |")
    if "NOW-sort" in fig8.sweeps:
        nowsort = dict(fig8.sweeps["NOW-sort"].series())
        w(f"\nPaper headlines reproduced: nothing reacts until ~15 MB/s; "
          f"no slowdown beyond\n~3x even at 1 MB/s; NOW-sort is "
          f"disk-limited (at 5.5 MB/s it is {fmt(nowsort[5.5])}x, only "
          f"at\n1 MB/s does it reach {fmt(nowsort[1.0])}x).\n")

    # ---- Predicted sweeps (simcost, beyond the paper) -----------------------
    w("## Predicted sweeps — simcost (beyond the paper)\n")
    w("Each application was simulated **once** at the baseline with "
      "the dependency\nrecorder on; every dial sweep below is predicted "
      "by symbolic longest-path\nreplay of that one recorded DAG "
      "(`repro.cost`), then compared per point against\nthe simulated "
      "figures above.\n")
    for dial, simulated in zip(MACHINE_DIALS, (fig5_32, fig6, fig7, fig8)):
        predicted = experiments.predicted_figure(graphs, dial,
                                                 SWEEP_GRIDS[dial])
        errors = experiments.prediction_errors(predicted, simulated)
        app, value, _sim, _pred, worst = max(
            (row for row in errors.rows if row[4] is not None),
            key=lambda row: row[4])
        w(f"### Predicted figure — {dial}\n")
        w("```\n" + predicted.render() + "\n```")
        w(errors.render())
        w(f"\nMedian relative error vs the simulated {dial} sweep: "
          f"{fmt(errors.median * 100, 1)}%;\nworst point: {app} at "
          f"{dial} = {value:g} ({fmt(worst * 100, 1)}%).\n")

    w("### Latency tolerance — dial value at 2x predicted slowdown\n")
    w(experiments.tolerance_table(graphs))
    w("\nEach cell is where the app crosses 2x slowdown (µs for "
      "overhead/gap/latency,\nMB/s for bulk — bandwidth *falls* to the "
      "crossing); `never` means the dial never\ndoubles the runtime "
      "within the searched range.  Larger is more tolerant on the\n"
      "time dials; smaller is more tolerant on bandwidth.\n")
    classic = len(graphs) * sum(len(SWEEP_GRIDS[d]) for d in MACHINE_DIALS)
    w(f"Simulations-avoided accounting: {len(graphs)} recordings stand "
      f"in for the {classic}\nsimulations of the classic four-dial "
      f"sweep path — a {round(classic / len(graphs), 2)}x reduction.\n")

    # ---- Figure 9 / Table 7 (beyond the paper) ------------------------------
    w("## Figure 9 — sensitivity to packet loss (beyond the paper)\n")
    w("```\n" + fig9.render() + "\n```")
    w("| app | slowdown at 2% drop | retransmits |")
    w("|---|---|---|")
    fig9_retx = {}
    for name, sweep in fig9.sweeps.items():
        top = sweep.points[-1]
        retx = (top.result.stats.total_retransmissions
                if top.completed else None)
        fig9_retx[name] = retx
        w(f"| {name} | {fmt(fig9.max_slowdown(name))}x | "
          f"{retx if retx is not None else 'N/A'} |")
    w("\nSeeded drops exercise the AM reliability protocol "
      "(sequence numbers, sender-held\nretransmission with exponential "
      "backoff, receiver duplicate suppression).  Every\napplication "
      "completes with validated output under loss; cost scales with "
      "message\nfrequency, like the overhead/gap sweeps, because every "
      "lost packet costs at\nleast one retransmission timeout on the "
      "critical path.\n")

    w("## Table 7 — delay-spike propagation (beyond the paper)\n")
    w("```\n" + t7.render() + "\n```")
    w("A one-off 500 µs delay spike holds every packet arriving at "
      "node 0 during its\nwindow, so its cost depends on what the "
      "window intersects: EM3D(write)'s steady\npacket stream "
      "propagates most of the spike straight into the runtime "
      "(propagated\n≈ 0.8-0.9 — the barrier at the end of each step "
      "cannot proceed until the frozen\nnode catches up), while apps "
      "sitting in a local-compute phase at the spike's\nstart "
      "(Radix's histogramming, Sample's local sort) absorb it "
      "entirely: no\npackets target the frozen node, so nothing is "
      "delayed.  Spikes landing in the\nuntimed setup phase shift "
      "alignment by a few tens of µs either way.  This is\nthe Afzal-"
      "style decay experiment: delay propagates through "
      "communication\ndependences, not wall-clock.\n")

    # ---- Figure 10 / Table 8 (beyond the paper) -----------------------------
    w("## Figure 10 — collective algorithm sensitivity "
      "(beyond the paper)\n")
    w("```\n" + fig10.render() + "\n```")
    w("Each series is one (primitive, algorithm) pair from "
      "`repro.coll`, swept across\nbulk bandwidth with 16 KB payloads. "
      "Where series of the same primitive cross is\nwhere a tuned "
      "machine should switch schedules: as bandwidth collapses, "
      "schedules\nthat move fewer total bytes (ring allreduce, "
      "pipelined-chain broadcast) pull\nahead of the latency-optimised "
      "binomial trees.\n")

    w("## Table 8 — LogGP-model-driven algorithm selection "
      "(beyond the paper)\n")
    w("```\n" + t8.render() + "\n```")
    agree = [row for row in t8.rows() if row["within_10pct"] == "ok"]
    w("\n" + textwrap.fill(
        "The closed-form LogGP cost model picks the measured-cheapest "
        f"algorithm (or one within 10% of it) for {len(agree)} of "
        f"{len(t8.rows())} (primitive, size) cells; the claims row "
        "`t8.agreement` holds that rate at 80% or more, and "
        "`coll.grid_agreement` does over a (P, size, bandwidth) "
        "validation grid.", 80,
        break_on_hyphens=False) + "\n")

    # ---- Figure 11 (beyond the paper) ---------------------------------------
    w("## Figure 11 — open-system serving tail latency "
      "(beyond the paper)\n")
    w("```\n" + fig11.render().rstrip("\n") + "\n```")
    from repro.serve.sweep import serving_rows
    o_rows, l_rows, d_rows = (serving_rows(fig11.dial_sweeps[dial])
                              for dial in ("overhead", "latency",
                                           "drop_rate"))
    knees = sorted(fig11.knees().items())
    slo = fmt(fig11.slo_us, 0)

    def rps(value):
        return value if value == "N/A" else f"{value:,.0f}"

    w("\n" + textwrap.fill(
        "An open-system KV tier (1M simulated users, Poisson arrivals, "
        f"{slo} µs p999 SLO) replaces the closed SPMD suite: requests "
        "keep arriving whether or not servers keep up, so the dials move "
        "*tail latency and goodput* instead of runtime.  Send overhead "
        f"dominates — p999 goes {o_rows[0]['p999_us']} → "
        f"{o_rows[-1]['p999_us']} µs from o={o_rows[0]['value']:g} to "
        f"o={o_rows[-1]['value']:g} µs while goodput collapses "
        f"({rps(o_rows[0]['goodput_rps'])} → "
        f"{rps(o_rows[-1]['goodput_rps'])} good req/s), because every "
        "request pays 2·o per RPC hop at *every* queue visit, and "
        "queueing amplifies what a closed bulk-synchronous app would "
        "absorb into slack.  Latency only shifts the tail by roughly the "
        f"added round trips (p999 {l_rows[0]['p999_us']} → "
        f"{l_rows[-1]['p999_us']} µs across {l_rows[0]['value']:g} → "
        f"{l_rows[-1]['value']:g} µs), and seeded drops surface as "
        "retransmission-delayed stragglers in the p999 "
        f"({d_rows[0]['p999_us']} → {d_rows[-1]['p999_us']} µs at "
        f"{d_rows[-1]['value'] * 100:g}% loss).  The SLO knee — the "
        f"largest offered load that still meets p999 ≤ {slo} µs — "
        "collapses with overhead:", 80, break_on_hyphens=False))
    w(", ".join(f"o={o:g} µs → "
                + (f"{int(k):,} req/s" if k is not None else "none")
                for o, k in knees) + ".")
    (o_low, k_low), (o_high, k_high) = knees[0], knees[-1]
    if k_low is not None and k_high:
        w(textwrap.fill(
            f"The crossover: the machine that holds the SLO up to "
            f"{int(k_low):,} req/s at the paper's tuned {o_low:g} µs "
            f"overhead holds it only up to {int(k_high):,} req/s — "
            f"1/{k_low / k_high:g} of that load — at {o_high:g} µs: the "
            "paper's \"overhead dominates\" ordering, restated as "
            "operator-facing capacity.", 80, break_on_hyphens=False))
    w("")

    # ---- bulk calibration footnote ------------------------------------------
    bulk = calibrate_bulk_bandwidth()
    w("## Appendix — bulk bandwidth calibration\n")
    w("Bandwidth saturates with message size at "
      f"{fmt(bulk.saturated_mb_s, 1)} MB/s (machine: 38), as the "
      "paper's\ncalibration saturates at 2 KB messages.\n")

    # ---- the claims ------------------------------------------------------
    counts = {status: sum(row["status"] == status for row in rows)
              for status in ("holds", "n/a", "fails")}
    failed = [row for row in rows if row["status"] == "fails"]
    json_out = pathlib.Path(args.out).with_suffix(".json")
    w("## Claims — the paper's shape claims, checked\n")
    w(textwrap.fill(
        "The `.json` file written beside this one holds one row per "
        "claim of `repro.harness.claims`: its artifact, the claim, the "
        "paper's value, the measured value, the bound and the input "
        f"scale it holds at.  Of {len(rows)} rows, {counts['holds']} hold, "
        f"{counts['n/a']} are not applicable at this scale or app "
        f"selection, and {counts['fails']} fail.", 80,
        break_on_hyphens=False) + "\n")
    if failed:
        w("| id | measured | bound |")
        w("|---|---|---|")
        for row in failed:
            w(f"| {row['id']} | {row['measured']} | {row['bound']} |")
        w("")

    elapsed = time.time() - started  # simlint: disable=wall-clock - footer
    w(f"---\n*Generated in {elapsed:.0f} s of wall-clock simulation.*")

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
