"""One record per table and figure: what it runs, writes and claims.

Each :class:`Artifact` of :data:`REGISTRY` is one of the paper's tables
or figures, or a study only the claims read: the
:class:`~repro.harness.parallel.Plan` of its value, the
``EXPERIMENTS.md`` section it writes, the other records that section
reads, the id prefixes of its :mod:`~repro.harness.claims` rows and the
suite applications it reads.  ``python -m repro.harness`` plans every
record at ``--nodes``, drains the union once and writes the sections in
registry order (``--only``: the named ones, planned with what they
read); a claims row takes its artifact title and holds-at scale from the
record owning its prefix.  The microbenchmarks plan no runs: they
measure when the plan is built, after the drain.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.am.tuning import TuningKnobs
from repro.apps import SUITE_ORDER
from repro.calibrate import (calibrate_bulk_bandwidth, calibrate_machine,
                             round_trip_time)
from repro.harness import experiments
from repro.harness.claims import PAPER
from repro.harness.extensions import (burst_ablation, investment_study,
                                      occupancy_study, scaling_study,
                                      window_scope_ablation)
from repro.harness.parallel import Plan
from repro.harness.report import markdown_table
from repro.harness.surface import overhead_gap_surface
from repro.harness.sweeps import DIALS, MACHINE_DIALS, SensitivityFigure
from repro.network.loggp import LogGPParams

__all__ = ["Artifact", "REGISTRY", "OWNERS"]

#: What a section reads: every artifact's built value, by name.
Values = Dict[str, Any]

#: The applications of Figure 4's matrices and Table 7's spikes.
SHOWN = ("Radix", "EM3D(write)", "Sample", "NOW-sort")


@dataclass(frozen=True)
class Artifact:
    """One table, figure or claims-only study."""

    #: The key its value is built under, and its ``--only`` name if it
    #: has a section.
    name: str
    #: ``plan(nodes, scale, apps)``: its value on ``nodes`` (half-machine
    #: runs take ``nodes // 2``) for the suite ``apps``.
    plan: Callable[[int, float, Tuple[str, ...]], Plan]
    #: Its ``## `` heading; with no section, the title its rows name.
    #: ``{nodes}`` and ``{half}`` stand for the machine it is planned on
    #: and its half (see :meth:`heading_at`).
    heading: Optional[str] = None
    #: Its text, from its own value and those of ``reads``.
    section: Optional[Callable[[Values], str]] = None
    #: Id prefixes of its claims rows.
    prefixes: Tuple[str, ...] = ()
    #: The suite applications it reads; with none, its rows hold at
    #: any input scale.
    apps: Tuple[str, ...] = ()
    #: The other records its section reads.
    reads: Tuple[str, ...] = ()

    @property
    def title(self) -> Optional[str]:
        """The heading up to its dash: ``Table 3``."""
        return self.heading and self.heading.split(" — ")[0]

    def heading_at(self, nodes: int) -> str:
        """Its heading for a report planned on ``nodes``."""
        return self.heading.format(nodes=nodes, half=nodes // 2)

    def planned(self, nodes: int, scale: float,
                selection: Optional[Sequence[str]] = None) -> Plan:
        """Its plan for the apps of ``selection`` (None: all) it reads;
        a plan of nothing that builds None if it reads apps and
        ``selection`` has none of them."""
        apps = tuple(name for name in self.apps
                     if selection is None or name in selection)
        if self.apps and not apps:
            return Plan((), lambda _points: None)
        return self.plan(nodes, scale, apps)


def _measured(measure: Callable[[], Any]):
    """The plan of a microbenchmark: no runs, measured when built."""
    return lambda nodes, scale, apps: Plan((), lambda _points: measure())


def _suite(study, *args, half: bool = False, **fixed):
    """The plan of a study of suite apps on ``nodes`` (``half``: on
    ``nodes // 2``)."""
    return lambda nodes, scale, apps: study.plan(
        *args, n_nodes=nodes // 2 if half else nodes, scale=scale,
        names=apps, **fixed)


def _figure(dial: str, half: bool = False):
    """A sensitivity figure over ``dial``'s reduced grid."""
    return _suite(experiments.sensitivity_figure, dial, half=half,
                  values=DIALS[dial].reduced)


def coll_grid_plan() -> Plan:
    """Table 8 on (P, bulk MB/s) blocks: the rows of the model's
    validation grid, which the ``coll.grid_agreement`` row grades."""
    now = LogGPParams.berkeley_now()
    return Plan.union([experiments.table8_collectives.plan(
        n_nodes, sizes=(32, 4096, 65536), seed=9, iterations=2,
        knobs=TuningKnobs.bulk_bandwidth(mb_s, now))
        for n_nodes in (4, 8, 16) for mb_s in (38.0, 4.0)]).then(
        lambda tables: [row for table in tables for row in table.rows()])


def _predicted(nodes: int, scale: float, apps: Tuple[str, ...]) -> Plan:
    """One recording per application, and Figures 5-8 predicted from
    them over the reduced grids: ``(graphs, {dial: figure})``."""
    return experiments.recorded_suite.plan(nodes, scale, names=apps).then(
        lambda graphs: (graphs, {
            dial: experiments.predicted_figure(graphs, dial,
                                               DIALS[dial].reduced)
            for dial in MACHINE_DIALS}))


# ---------------------------------------------------------------------------
# The sections: the text under each heading.
# ---------------------------------------------------------------------------

#: The report's fixed text, by artifact name ({} are its numbers).
PROSE = {
    "table1": """
Verdict: the microbenchmarks recover every machine's dialed parameters; g reads
slightly low from finite bursts, as the paper also observed.
""",
    "figure3": """\
- paper: o_send ≈ {} µs; measured: {} µs
- paper: steady-state g ≈ {} µs (desired 14); measured: {} µs
- paper: Δ=10 plateau at o_send+o_recv+Δ ≈ {} µs; measured: {} µs
""",
    "table2": """\
Shape checks (all reproduce the paper):
- each dial hits its target; the other parameters hold still;
- large o drives effective g toward 2·o (processor becomes the bottleneck);
- large L drives effective g toward RTT/window (fixed flow-control capacity —
  the paper's {} µs at L=105; ours: {} µs).
""",
    "table3": """
Verdict: all ten applications complete with validated outputs at both sizes; the
data-parallel apps speed up going 16→32 while Radix's histogram serialization
(∝ radix × P) caps its speedup at reduced key counts — the Section 5.1 effect.
""",
    "table4": """\
Paper-vs-measured orderings that hold: Radix/EM3D(write)/Sample are the most
frequent communicators and NOW-sort the least; EM3D(read)/P-Ray/Connect are
read-dominated (paper: 97/96/67%); P-Ray/Barnes/NOW-sort/Radb carry the bulk
traffic (paper: 48/23/50/35%).
""",
    "figure4": """\
Reproduced features: Radix's dark off-diagonal ring (the pipelined cyclic-shift
histogram) over a balanced background; EM3D's near-diagonal swath; Sample's
uneven columns; NOW-sort's solid balanced square.
""",
    "figure5": """
Serialization effect: the 2·m·Δo model under-predicts Radix by {:.0f}% on {}
nodes and {:.0f}% on {} nodes — the serial residual grows with P, the paper's
Section 5.1 analysis.  (At the paper's 16M keys the effect also flips the raw
slowdown ratio, 57x vs ~25x; at reduced key counts the distribution term shrinks
faster than at full scale, so only the residual direction reproduces.)  Response
is linear for every app, as in the paper.
Divergence: our Barnes completes under high overhead (lock retries are paced by
full round trips, so the retry storm stays bounded at our body counts); the
failed-lock-attempt counter and the livelock budget reproduce the paper's
diagnostic, but the emergent livelock itself needs the paper's 1M-body scale.
""",
    "table5": """\
As in the paper: accurate for the frequently communicating, well-parallelised
apps (Sample, EM3D(write)); under-predicts Radix at high overhead (the serial
histogram phase the busiest-processor model cannot see).
""",
    "figure6": """
Frequent communicators are hit hard; light communicators shrug — and the
response is linear (bursty traffic), which is why the burst model fits.
""",
    "table6": """\
Tracks the heavy communicators; over-predicts overall since not every message
is sent inside a burst — both as in the paper.
""",
    "figure7": """
The ordering flips from message frequency to *read* frequency: EM3D(read) tops
the chart, the write-based sorts barely react. Latency matters least of the four
parameters, as the paper concludes.
""",
    "figure8": """
Paper headlines reproduced: nothing reacts until ~15 MB/s; no slowdown beyond
~3x even at 1 MB/s; NOW-sort is disk-limited (at 5.5 MB/s it is {}x, only at
1 MB/s does it reach {}x).
""",
    "predict": """\
Each application was simulated **once** at the baseline with the dependency
recorder on; every dial sweep below is predicted by symbolic longest-path
replay of that one recorded DAG (`repro.cost`), then compared per point against
the simulated figures above.
""",
    "predict.tolerance": """
Each cell is where the app crosses 2x slowdown (µs for overhead/gap/latency,
MB/s for bulk — bandwidth *falls* to the crossing); `never` means the dial never
doubles the runtime within the searched range.  Larger is more tolerant on the
time dials; smaller is more tolerant on bandwidth.
""",
    "figure9": """
Seeded drops exercise the AM reliability protocol (sequence numbers, sender-held
retransmission with exponential backoff, receiver duplicate suppression).  Every
application completes with validated output under loss; cost scales with message
frequency, like the overhead/gap sweeps, because every lost packet costs at
least one retransmission timeout on the critical path.
""",
    "table7": """\
A one-off 500 µs delay spike holds every packet arriving at node 0 during its
window, so its cost depends on what the window intersects: EM3D(write)'s steady
packet stream propagates most of the spike straight into the runtime (propagated
≈ 0.8-0.9 — the barrier at the end of each step cannot proceed until the frozen
node catches up), while apps sitting in a local-compute phase at the spike's
start (Radix's histogramming, Sample's local sort) absorb it entirely: no
packets target the frozen node, so nothing is delayed.  Spikes landing in the
untimed setup phase shift alignment by a few tens of µs either way.  This is
the Afzal-style decay experiment: delay propagates through communication
dependences, not wall-clock.
""",
    "figure10": """\
Each series is one (primitive, algorithm) pair from `repro.coll`, swept across
bulk bandwidth with 16 KB payloads. Where series of the same primitive cross is
where a tuned machine should switch schedules: as bandwidth collapses, schedules
that move fewer total bytes (ring allreduce, pipelined-chain broadcast) pull
ahead of the latency-optimised binomial trees.
""",
    # The two paragraphs below are refilled to 80 columns.
    "table8": """\
The closed-form LogGP cost model picks the measured-cheapest algorithm (or one
within 10% of it) for {} of {} (primitive, size) cells; the claims row
`t8.agreement` holds that rate at 80% or more, and `coll.grid_agreement` does
over a (P, size, bandwidth) validation grid.""",
    "figure11": """\
An open-system KV tier (1M simulated users, Poisson arrivals, {slo} µs p999
SLO) replaces the closed SPMD suite: requests keep arriving whether or not
servers keep up, so the dials move *tail latency and goodput* instead of
runtime.  Send overhead dominates — p999 goes {o[0][p999_us]} →
{o[1][p999_us]} µs from o={o[0][value]:g} to o={o[1][value]:g} µs while
goodput collapses ({good[0]} → {good[1]} good req/s), because every request
pays 2·o per RPC hop at *every* queue visit, and queueing amplifies what a
closed bulk-synchronous app would absorb into slack.  Latency only shifts the
tail by roughly the added round trips (p999 {L[0][p999_us]} → {L[1][p999_us]}
µs across {L[0][value]:g} → {L[1][value]:g} µs), and seeded drops surface as
retransmission-delayed stragglers in the p999 ({d[0][p999_us]} →
{d[1][p999_us]} µs at {loss:g}% loss).  The SLO knee — the largest offered
load that still meets p999 ≤ {slo} µs — collapses with overhead:""",
    "figure11.crossover": """\
The crossover: the machine that holds the SLO up to {:,} req/s at the paper's
tuned {:g} µs overhead holds it only up to {:,} req/s — 1/{:g} of that load —
at {:g} µs: the paper's "overhead dominates" ordering, restated as
operator-facing capacity.""",
    "bulk": """\
Bandwidth saturates with message size at {} MB/s (machine: 38), as the paper's
calibration saturates at 2 KB messages.
""",
}


def fmt(value, digits=2):
    return "N/A" if value is None else f"{value:.{digits}f}"


def _fill(text: str) -> str:
    return textwrap.fill(text, 80, break_on_hyphens=False)


def _boxed(text: str) -> str:
    return "```\n" + text + "\n```"


def _verbatim(name: str) -> Callable[[Values], str]:
    """The artifact's own rendering, then its prose."""
    return lambda v: _boxed(v[name].render()) + "\n" + PROSE[name]


def _slowdowns(figure: SensitivityFigure, header: List[str],
               cells: Callable[[str], List[Any]]) -> List[str]:
    """The figure, then a table of ``cells(app)`` per app under
    ``header``, the columns after ``app``."""
    return [_boxed(figure.render()), markdown_table(
        ["app", *header], [[name, *cells(name)] for name in figure.sweeps])]


def _table1(v: Values) -> str:
    def cells(name, *measured):  # measured: o, g, L, MB/s
        return [name, ", ".join(map(str, PAPER[f"t1.{name}"])),
                ", ".join(map(str, measured))]
    return markdown_table(
        ["platform", "paper (o, g, L, MB/s)", "measured (o, g, L, MB/s)"],
        [cells(*row.values()) for row in v["table1"].rows()]
    ) + "\n" + PROSE["table1"]


def _figure3(v: Values) -> str:
    sig = v["figure3"]
    return _boxed(sig.render()) + "\n" + PROSE["figure3"].format(
        PAPER["f3.send_overhead"], fmt(sig.send_overhead()),
        PAPER["f3.steady_gap"], fmt(sig.steady_state(0.0)),
        PAPER["f3.delta10_plateau"], fmt(sig.steady_state(10.0)))


def _table2(v: Values) -> str:
    t2 = v["table2"]
    top_L = [row for row in t2.rows_ if row.dialed == "L"][-1]
    return _boxed(t2.render()) + "\n" + PROSE["table2"].format(
        PAPER["t2.large_L_gap_rtt_window"], fmt(top_L.measured.gap))


def _table3(v: Values) -> str:
    half, full = sorted(next(iter(v["table3"].values())))  # 16, 32

    def cells(name, by_nodes):
        m_half, m_full = by_nodes[half] / 1000.0, by_nodes[full] / 1000.0
        return [name, " / ".join(map(str, PAPER[f"t3.{name}"])),
                f"{fmt(m_half)} / {fmt(m_full)}", f"{fmt(m_half / m_full)}x"]
    return markdown_table(
        ["program", "paper 16/32-node (s)",
         f"measured {half}/{full}-node (ms)", "measured speedup"],
        [cells(*item) for item in v["table3"].items()]
    ) + "\n" + PROSE["table3"]


def _figure4(v: Values) -> str:
    return "\n".join([_boxed(result.render_balance())
                      for result in v["figure4"].values()]
                     + [PROSE["figure4"]])


def _figure5(v: Values) -> str:
    fig5_16, fig5_32 = v["figure5_16"], v["figure5"]
    lines = _slowdowns(
        fig5_32, ["paper max slowdown (32n, o≈103)", "measured 16n",
                  "measured 32n"], lambda name: [
            PAPER[f"f5.max.{name}"], f"{fmt(fig5_16.max_slowdown(name))}x",
            f"{fmt(fig5_32.max_slowdown(name))}x"])
    if "Radix" in fig5_32.sweeps:
        # The scaling study's runs are these sweeps' o = 2.9 and 102.9.
        scaling = v["scaling"]
        half, full = sorted(scaling.runtimes)  # 16, 32
        lines.append(PROSE["figure5"].format(
            (scaling.serial_residual(half) - 1) * 100, half,
            (scaling.serial_residual(full) - 1) * 100, full))
    return "\n".join(lines)


def _paper_peaks(name: str, prefix: str,
                 top: str) -> Callable[[Values], str]:
    """Figures 6 and 7: each app's slowdown at the top of the dial
    beside the paper's, then the prose."""
    def section(v: Values) -> str:
        figure = v[name]
        return "\n".join(_slowdowns(
            figure, [f"paper slowdown at {top}", "measured"], lambda app: [
                PAPER[f"{prefix}.max.{app}"],
                f"{fmt(figure.max_slowdown(app))}x"]) + [PROSE[name]])
    return section


def _figure8(v: Values) -> str:
    fig8 = v["figure8"]
    lines = _slowdowns(fig8, ["measured slowdown at 1 MB/s"], lambda name: [
        f"{fmt(fig8.max_slowdown(name))}x"])
    if "NOW-sort" in fig8.sweeps:
        nowsort = dict(fig8.sweeps["NOW-sort"].series())
        lines.append(PROSE["figure8"].format(fmt(nowsort[5.5]),
                                             fmt(nowsort[1.0])))
    return "\n".join(lines)


def _predicted_sweeps(v: Values) -> str:
    graphs, figures = v["predict"]
    lines = [PROSE["predict"]]
    for (dial, predicted), simulated in zip(
            figures.items(),
            ("figure5", "figure6", "figure7", "figure8")):
        errors = experiments.prediction_errors(predicted, v[simulated])
        app, value, _sim, _pred, worst = max(
            (row for row in errors.rows if row[4] is not None),
            key=lambda row: row[4])
        lines += [
            f"### Predicted figure — {dial}\n", _boxed(predicted.render()),
            errors.render(),
            f"\nMedian relative error vs the simulated {dial} sweep: "
            f"{fmt(errors.median * 100, 1)}%;\nworst point: {app} at "
            f"{dial} = {value:g} ({fmt(worst * 100, 1)}%).\n"]
    classic = len(graphs) * sum(len(DIALS[d].reduced) for d in MACHINE_DIALS)
    return "\n".join(lines + [
        "### Latency tolerance — dial value at 2x predicted slowdown\n",
        experiments.tolerance_table(graphs), PROSE["predict.tolerance"],
        f"Simulations-avoided accounting: {len(graphs)} recordings stand "
        f"in for the {classic}\nsimulations of the classic four-dial "
        f"sweep path — a {round(classic / len(graphs), 2)}x reduction.\n"])


def _figure9(v: Values) -> str:
    fig9 = v["figure9"]

    def cells(name):
        top = fig9.sweeps[name].points[-1]
        return [f"{fmt(fig9.max_slowdown(name))}x",
                top.result.stats.total_retransmissions
                if top.completed else "N/A"]
    return "\n".join(_slowdowns(
        fig9, ["slowdown at 2% drop", "retransmits"], cells)
        + [PROSE["figure9"]])


def _table8(v: Values) -> str:
    rows = v["table8"].rows()
    agree = sum(row["within_10pct"] == "ok" for row in rows)
    return _boxed(v["table8"].render()) + "\n\n" + _fill(
        PROSE["table8"].format(agree, len(rows))) + "\n"


def _figure11(v: Values) -> str:
    from repro.serve.sweep import serving_rows
    fig11 = v["figure11"]
    # Each dial's first and last serving rows.
    o, L, d = ((rows[0], rows[-1]) for rows in (
        serving_rows(fig11.dial_sweeps[dial])
        for dial in ("overhead", "latency", "drop_rate")))
    good = [value if value == "N/A" else f"{value:,.0f}"
            for value in (row["goodput_rps"] for row in o)]
    knees = sorted(fig11.knees().items())
    lines = [_boxed(fig11.render().rstrip("\n")), "\n" + _fill(
        PROSE["figure11"].format(slo=fmt(fig11.slo_us, 0), o=o, L=L, d=d,
                                 good=good, loss=d[1]["value"] * 100)),
        ", ".join(f"o={overhead:g} µs → "
                  + (f"{int(knee):,} req/s" if knee is not None else "none")
                  for overhead, knee in knees) + "."]
    (o_low, k_low), (o_high, k_high) = knees[0], knees[-1]
    if k_low is not None and k_high:
        lines.append(_fill(PROSE["figure11.crossover"].format(
            int(k_low), o_low, int(k_high), k_low / k_high, o_high)))
    return "\n".join(lines + [""])


# ---------------------------------------------------------------------------
# The registry, in EXPERIMENTS.md's order.
# ---------------------------------------------------------------------------

REGISTRY: Dict[str, Artifact] = {artifact.name: artifact for artifact in (
    Artifact("table1", _measured(experiments.table1_baseline_params),
             "Table 1 — baseline LogGP parameters", _table1, ("t1",)),
    Artifact("figure3", _measured(experiments.figure3_signature),
             "Figure 3 — LogP signature (g dialed to 14 µs)", _figure3,
             ("f3",)),
    Artifact("rtt", _measured(lambda: round_trip_time(
        knobs=TuningKnobs.added_gap(14.0 - 5.8)))),
    Artifact("table2", _measured(lambda: experiments.table2_calibration(
        desired_o=DIALS["overhead"].reduced, desired_g=DIALS["gap"].reduced,
        desired_L=DIALS["latency"].reduced)),
        "Table 2 — calibration of the dials", _table2, ("t2",)),
    Artifact("windows", _measured(lambda: {
        window: calibrate_machine("L", (105.0,), window=window)[0]
        .measured.gap for window in (4, 8, 16)}),
        "Ablation: window size", prefixes=("window",)),
    Artifact("table3", lambda nodes, scale, apps:
             experiments.table3_baseline_runtimes.plan(
                 node_counts=(nodes // 2, nodes), scale=scale, names=apps),
             "Table 3 — base runtimes, fixed input, {half} vs {nodes} nodes",
             _table3, ("t3",), SUITE_ORDER),
    Artifact("table4", _suite(experiments.table4_comm_summary),
             "Table 4 — communication summary ({nodes} nodes)",
             _verbatim("table4"), ("t4",), SUITE_ORDER),
    Artifact("figure4", _suite(experiments.figure4_balance),
             "Figure 4 — communication balance (selected matrices)",
             _figure4, ("f4",), SHOWN),
    Artifact("figure5_16", _figure("overhead", half=True),
             apps=SUITE_ORDER),
    Artifact("figure5", _figure("overhead"),
             "Figure 5 — sensitivity to overhead", _figure5, ("f5",),
             SUITE_ORDER, reads=("figure5_16", "scaling")),
    Artifact("scaling", lambda nodes, scale, apps: scaling_study.plan(
        *apps, node_counts=(nodes // 2, nodes), delta_o=100.0, scale=scale),
        "Scaling study", prefixes=("scaling",), apps=("Radix",)),
    Artifact("table5", _suite(experiments.table5_overhead_model,
                              values=DIALS["overhead"].reduced),
             "Table 5 — overhead model (r + 2·m·Δo)",
             _verbatim("table5"), ("t5",), SHOWN + ("Radb",)),
    Artifact("figure6", _figure("gap"), "Figure 6 — sensitivity to gap",
             _paper_peaks("figure6", "f6", "g=105"), ("f6",),
             SUITE_ORDER),
    Artifact("table6", _suite(experiments.table6_gap_model,
                              values=DIALS["gap"].reduced),
             "Table 6 — burst gap model (r + m·Δg)",
             _verbatim("table6"), ("t6",), SHOWN + ("Connect",)),
    Artifact("figure7", _figure("latency"),
             "Figure 7 — sensitivity to latency",
             _paper_peaks("figure7", "f7", "L=105"), ("f7",),
             SUITE_ORDER),
    Artifact("figure8", _figure("bulk_mb_s"),
             "Figure 8 — sensitivity to bulk bandwidth", _figure8, ("f8",),
             SUITE_ORDER),
    Artifact("predict", _predicted,
             "Predicted sweeps — simcost (beyond the paper)",
             _predicted_sweeps, apps=SUITE_ORDER,
             reads=("figure5", "figure6", "figure7", "figure8")),
    Artifact("figure9", _figure("drop_rate"),
             "Figure 9 — sensitivity to packet loss (beyond the paper)",
             _figure9, apps=SUITE_ORDER),
    Artifact("table7", _suite(experiments.table7_spike_decay,
                              duration_us=500.0,
                              starts=(0.0, 500.0, 2000.0)),
             "Table 7 — delay-spike propagation (beyond the paper)",
             _verbatim("table7"), apps=SHOWN),
    Artifact("figure10", lambda nodes, scale, apps:
             experiments.figure10_collectives.plan(
                 n_nodes=nodes, primitives=("broadcast", "allreduce"),
                 parameter="bulk_mb_s", values=(38.0, 15.0, 5.5, 1.0),
                 size=16384, iterations=2),
             "Figure 10 — collective algorithm sensitivity (beyond the "
             "paper)", _verbatim("figure10")),
    Artifact("table8", lambda nodes, scale, apps:
             experiments.table8_collectives.plan(
                 n_nodes=nodes, sizes=(32, 1024, 16384, 65536),
                 iterations=2),
             "Table 8 — LogGP-model-driven algorithm selection (beyond the "
             "paper)", _table8, ("t8", "coll")),
    Artifact("coll_grid", lambda nodes, scale, apps: coll_grid_plan()),
    Artifact("figure11", lambda nodes, scale, apps:
             experiments.figure11_serving.plan(n_nodes=nodes, scale=scale),
             "Figure 11 — open-system serving tail latency (beyond the "
             "paper)", _figure11),
    Artifact("bulk", _measured(calibrate_bulk_bandwidth),
             "Appendix — bulk bandwidth calibration", lambda v: PROSE["bulk"].format(
                 fmt(v["bulk"].saturated_mb_s, 1))),
    Artifact("surface", lambda nodes, scale, apps: overhead_gap_surface.plan(
        *apps, n_nodes=nodes // 2, values=(25.0, 100.0), scale=scale),
        "o x g surface", prefixes=("surface",), apps=("Sample",)),
    Artifact("investment", lambda nodes, scale, apps:
             investment_study.plan(*apps, n_nodes=nodes // 2, scale=scale),
             "Investment study", prefixes=("investment",), apps=("Sample",)),
    Artifact("occupancy", lambda nodes, scale, apps: occupancy_study.plan(
        *apps, n_nodes=nodes // 2, values=(0.0, 10.0, 25.0, 50.0),
        scale=scale), "Occupancy study", prefixes=("occupancy",),
        apps=("EM3D(read)",)),
    Artifact("window_scope", lambda nodes, scale, apps:
             window_scope_ablation.plan(), "Ablation: window scope",
             prefixes=("scope",)),
    Artifact("burst", lambda nodes, scale, apps: burst_ablation.plan(),
             "Ablation: burstiness", prefixes=("burst",)),
)}

#: Claim id prefix -> the record whose rows carry it.
OWNERS: Dict[str, Artifact] = {prefix: artifact
                               for artifact in REGISTRY.values()
                               for prefix in artifact.prefixes}
