"""Two-dimensional sensitivity surfaces (an extension of Figures 5-8).

The paper dials one LogGP parameter at a time.  Real design points move
several at once (a slower NIC usually raises o *and* g), so this module
sweeps a grid over two dials and reports the slowdown surface.

The interesting question the surface answers: are overhead and gap
*redundant* (both throttle the same messages, so the combined slowdown
is about the max of the two) or *additive* (separate resources, costs
stack)?  For CPU-bound message streams they largely overlap — the
processor is already slower than the NIC — while for bursty traffic
beyond the CPU rate they stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.am.tuning import TuningKnobs
from repro.cluster.machine import Cluster, RunResult
from repro.harness.parallel import Plan, PointTask
from repro.harness.suite import suite_for
from repro.harness.sweeps import DIALS
from repro.network.loggp import LogGPParams

__all__ = ["SensitivitySurface", "overhead_gap_surface"]

@dataclass
class SensitivitySurface:
    """Slowdown over a 2-D grid of added (x_dial, y_dial) values."""

    app_name: str
    n_nodes: int
    x_dial: str
    y_dial: str
    x_values: List[float]
    y_values: List[float]
    #: slowdown[(x, y)] relative to the (0, 0) corner.
    slowdown: Dict[Tuple[float, float], float] = field(
        default_factory=dict)

    def at(self, x: float, y: float) -> float:
        """Slowdown at one grid point."""
        return self.slowdown[(x, y)]

    def is_monotone(self, tolerance: float = 0.02) -> bool:
        """Non-decreasing along both axes, within a small relative
        ``tolerance`` (queueing jitter of a few tenths of a percent is
        expected when one dial hides behind the other)."""
        for j, y in enumerate(self.y_values):
            for i, x in enumerate(self.x_values):
                here = self.at(x, y)
                if i > 0:
                    left = self.at(self.x_values[i - 1], y)
                    if here < left * (1.0 - tolerance):
                        return False
                if j > 0:
                    below = self.at(x, self.y_values[j - 1])
                    if here < below * (1.0 - tolerance):
                        return False
        return True

    def interaction_excess(self, x: float, y: float) -> float:
        """Measured combined slowdown minus the independent-axes
        composition ``s(x,0) + s(0,y) - 1``; ~0 means the two dials act
        additively, negative means they overlap (redundant), positive
        means they compound."""
        independent = self.at(x, 0.0) + self.at(0.0, y) - 1.0
        return self.at(x, y) - independent


def sensitivity_surface(app_name: str, n_nodes: int,
                        x_dial: str, x_values: Sequence[float],
                        y_dial: str, y_values: Sequence[float],
                        scale: float = 1.0, seed: int = 0,
                        params: Optional[LogGPParams] = None) -> Plan:
    """Sweep the full (x, y) grid of *added* amounts; (0, 0) is the
    baseline corner.  Each axis is a row of
    :data:`~repro.harness.sweeps.DIALS` that lands on a knob field."""
    known = sorted(name for name, dial in DIALS.items() if dial.knob_field)
    if x_dial not in known or y_dial not in known or x_dial == y_dial:
        raise ValueError("dials must be two different ones among: "
                         + ", ".join(known))
    x_field, y_field = DIALS[x_dial].knob_field, DIALS[y_dial].knob_field
    x_values = sorted(set([0.0] + list(x_values)))
    y_values = sorted(set([0.0] + list(y_values)))
    app, = suite_for(n_nodes, scale=scale, names=[app_name])
    grid = [(x, y) for y in y_values for x in x_values]

    def build(results: List[RunResult]) -> SensitivitySurface:
        runtimes = {key: result.runtime_us
                    for key, result in zip(grid, results)}
        base = runtimes[(0.0, 0.0)]
        return SensitivitySurface(
            app_name=app_name, n_nodes=n_nodes, x_dial=x_dial,
            y_dial=y_dial, x_values=x_values, y_values=y_values,
            slowdown={key: runtime / base
                      for key, runtime in runtimes.items()})
    return Plan.of_results(
        [PointTask(app, Cluster(n_nodes=n_nodes, seed=seed, params=params,
                                knobs=TuningKnobs(**{x_field: x,
                                                     y_field: y})))
         for x, y in grid]).then(build)


def overhead_gap_surface(app_name: str = "Sample", n_nodes: int = 16,
                         values: Sequence[float] = (25.0, 50.0, 100.0),
                         scale: float = 1.0, seed: int = 0) -> Plan:
    """The headline surface: added overhead × added gap."""
    return sensitivity_surface(app_name, n_nodes, "overhead", values,
                               "gap", values, scale=scale, seed=seed)
