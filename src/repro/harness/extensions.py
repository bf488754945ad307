"""Experiments beyond the paper's figures (extensions).

Three studies the paper motivates but does not plot:

* :func:`scaling_study` — how sensitivity to overhead changes with the
  number of processors (Section 5.1's parallel-efficiency observation:
  "speedup gets worse the greater the overhead" for programs with a
  serial portion).
* :func:`investment_study` — the closing trade-off of Section 5.5:
  double the CPUs or halve the communication costs?
* :func:`occupancy_study` — the Flash study's parameter (Section 6):
  how NIC occupancy compares against host overhead of the same
  magnitude.

And two ablations of the apparatus's design choices, on the
:class:`~repro.apps.microbench.BurstSender`:

* :func:`window_scope_ablation` — why the paper's applications tolerate
  latency although the pairwise microbenchmark is throttled to
  RTT/window: GAM's flow-control windows are per destination.
* :func:`burst_ablation` — the Section 5.2 model dichotomy: paced
  traffic ignores added gap, bursty traffic pays about m·Δg.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.am.tuning import TuningKnobs
from repro.apps.microbench import BurstSender
from repro.cluster.machine import Cluster
from repro.cluster.node import CostModel
from repro.harness.parallel import Plan, PointTask
from repro.harness.suite import suite_for
from repro.harness.sweeps import DIALS
from repro.models.overhead import OverheadModel
from repro.network.loggp import LogGPParams

__all__ = ["scaling_study", "investment_study", "occupancy_study",
           "window_scope_ablation", "burst_ablation",
           "ScalingStudy", "InvestmentStudy", "OccupancyStudy"]


# ---------------------------------------------------------------------------
# Scaling: sensitivity vs P.
# ---------------------------------------------------------------------------

@dataclass
class ScalingStudy:
    """Per-P overhead sensitivity with the serial residual isolated.

    The residual — measured dialed runtime over the busiest-processor
    model's prediction (``r + 2·m·Δo``) — is the paper's serialization
    effect made into a number: it grows with P for a program whose
    serial phase is proportional to P (Radix's histogram), which is why
    "parallel efficiency will decrease as overhead increases".
    """

    app_name: str
    delta_o: float
    #: node count -> (base µs, dialed µs, max messages/proc at base).
    runtimes: Dict[int, tuple] = field(default_factory=dict)

    def slowdown(self, n_nodes: int) -> float:
        """Dialed over baseline runtime at one cluster size."""
        base, dialed, _m = self.runtimes[n_nodes]
        return dialed / base

    def serial_residual(self, n_nodes: int) -> float:
        """Measured over model-predicted runtime at Δo (>1 means the
        simple model under-predicts: serialized work exists)."""
        base, dialed, max_messages = self.runtimes[n_nodes]
        return dialed / OverheadModel(base, max_messages).predict_runtime(
            self.delta_o)

    def residual_growth(self) -> float:
        """Largest-P residual over smallest-P residual."""
        node_counts = sorted(self.runtimes)
        return (self.serial_residual(node_counts[-1])
                / self.serial_residual(node_counts[0]))


def scaling_study(app_name: str = "Radix",
                  node_counts: Sequence[int] = (8, 16, 32),
                  delta_o: float = 100.0, scale: float = 1.0,
                  seed: int = 0) -> Plan:
    """Run one app at several cluster sizes, fixed total input, with and
    without added overhead."""
    tasks = []
    for n_nodes in node_counts:
        app, = suite_for(n_nodes, scale=scale, names=[app_name])
        for knobs in (TuningKnobs(), TuningKnobs.added_overhead(delta_o)):
            tasks.append(PointTask(
                app, Cluster(n_nodes=n_nodes, seed=seed, knobs=knobs)))
    return Plan.of_results(tasks).then(lambda results: ScalingStudy(
        app_name=app_name, delta_o=delta_o, runtimes={
            n_nodes: (base.runtime_us, dialed.runtime_us,
                      base.stats.max_messages_per_node)
            for n_nodes, base, dialed in zip(node_counts, results[0::2],
                                             results[1::2])}))


# ---------------------------------------------------------------------------
# Investment: CPU vs communication.
# ---------------------------------------------------------------------------

@dataclass
class InvestmentStudy:
    app_name: str
    n_nodes: int
    runtimes: Dict[str, float] = field(default_factory=dict)  # µs

    def speedup(self, design: str) -> float:
        """Baseline runtime over a design's runtime."""
        return self.runtimes["baseline"] / self.runtimes[design]


def investment_study(app_name: str = "Sample", n_nodes: int = 16,
                     scale: float = 1.0, seed: int = 0) -> Plan:
    """Section 5.5's trade-off: 2× CPU vs halved (o, g)."""
    now = LogGPParams.berkeley_now()
    designs = {
        "baseline": Cluster(n_nodes=n_nodes, seed=seed),
        "2x cpu": Cluster(n_nodes=n_nodes, seed=seed,
                          cost=CostModel().scaled(0.5)),
        "1/2 o and g": Cluster(
            n_nodes=n_nodes, seed=seed,
            params=now.with_changes(
                send_overhead=now.send_overhead / 2,
                recv_overhead=now.recv_overhead / 2,
                gap=now.gap / 2)),
    }
    app, = suite_for(n_nodes, scale=scale, names=[app_name])
    return Plan.of_results(
        [PointTask(app, cluster) for cluster in designs.values()]).then(
        lambda results: InvestmentStudy(
            app_name=app_name, n_nodes=n_nodes,
            runtimes={design: result.runtime_us
                      for design, result in zip(designs, results)}))


# ---------------------------------------------------------------------------
# Occupancy: the Flash study's parameter.
# ---------------------------------------------------------------------------

@dataclass
class OccupancyStudy:
    app_name: str
    n_nodes: int
    values_us: List[float] = field(default_factory=list)
    #: dial -> [runtime per value] (µs); dials: "occupancy", "overhead".
    runtimes: Dict[str, List[float]] = field(default_factory=dict)

    def slowdowns(self, dial: str) -> List[float]:
        """Per-value slowdown series for one dial."""
        series = self.runtimes[dial]
        return [r / series[0] for r in series]


def occupancy_study(app_name: str = "EM3D(read)", n_nodes: int = 16,
                    values: Sequence[float] = DIALS["occupancy"].grid,
                    scale: float = 1.0, seed: int = 0) -> Plan:
    """Sweep NIC occupancy and host overhead over the same grid of
    *added* amounts."""
    app, = suite_for(n_nodes, scale=scale, names=[app_name])
    dials = ("occupancy", "overhead")
    n = len(values)
    return Plan.of_results(
        [PointTask(app, Cluster(n_nodes=n_nodes, seed=seed,
                                knobs=TuningKnobs(**{field: value})), value)
         for field in (DIALS[dial].knob_field for dial in dials)
         for value in values]).then(
        lambda results: OccupancyStudy(
            app_name=app_name, n_nodes=n_nodes, values_us=list(values),
            runtimes={dial: [result.runtime_us
                             for result in results[i * n:(i + 1) * n]]
                      for i, dial in enumerate(dials)}))


# ---------------------------------------------------------------------------
# Ablations: window scope and traffic burstiness.
# ---------------------------------------------------------------------------

def _slowdowns(cases: Dict[str, tuple], knobs: TuningKnobs) -> Plan:
    """label -> runtime of ``(app, cluster)`` with ``knobs`` over
    without."""
    tasks = [PointTask(app, cluster.with_knobs(turned))
             for app, cluster in cases.values()
             for turned in (TuningKnobs(), knobs)]
    return Plan.of_results(tasks).then(lambda results: {
        label: results[2 * i + 1].runtime_us / results[2 * i].runtime_us
        for i, label in enumerate(cases)})


def window_scope_ablation() -> Plan:
    """Slowdown of 256 flat-out all-to-all requests per rank on 8 nodes
    under 100 µs more latency, with per-destination windows (GAM, the
    paper) and with one window shared by every destination; keyed by
    ``window_scope``."""
    app = BurstSender(n_messages=256, all_peers=True)
    return _slowdowns(
        {scope: (app, Cluster(8, seed=3, window_scope=scope))
         for scope in ("per-destination", "global")},
        TuningKnobs.added_latency(100.0))


def burst_ablation() -> Plan:
    """Slowdown under 100 µs more gap of 64 ring sends per rank on 4
    nodes, paced every 250 µs (``"paced"``) and flat out (``"burst"``).
    Each request is matched by an ack through the same NIC, so pacing
    stays under the dialed rate only with an interval above 2·g."""
    cluster = Cluster(4, seed=1)
    return _slowdowns({"paced": (BurstSender(64, 250.0), cluster),
                       "burst": (BurstSender(64), cluster)},
                      TuningKnobs.added_gap(100.0))
