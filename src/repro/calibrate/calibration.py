"""Table 2: desired vs observed parameters, dialing one knob at a time.

Each row dials a single LogGP parameter to a target value, runs the
microbenchmarks, and reports the three measured parameters, verifying
that (a) the dial moves its parameter by the intended amount and (b) the
other parameters stay put — with the two coupling effects the paper
itself observes: raising ``o`` raises the effective gap once the
processor becomes the bottleneck, and raising ``L`` raises the effective
gap through the fixed flow-control window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.am.layer import DEFAULT_WINDOW
from repro.am.tuning import TuningKnobs
from repro.calibrate.signature import MeasuredParameters, measure_parameters
from repro.network.loggp import LogGPParams

__all__ = ["CalibrationRow", "calibrate_machine", "calibration_table"]

#: The paper's sweep targets (Table 2).
DESIRED_O = (2.9, 4.9, 7.9, 12.9, 22.9, 52.9, 77.9, 102.9)
DESIRED_G = (5.8, 8.0, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0)
DESIRED_L = (5.0, 7.5, 10.0, 15.0, 30.0, 55.0, 80.0, 105.0)


@dataclass(frozen=True)
class CalibrationRow:
    """One row of Table 2: a target value and what was measured."""

    dialed: str  # which parameter was dialed: "o", "g", or "L"
    desired: float
    measured: MeasuredParameters

    def as_row(self) -> dict:
        """Flat dict row for tabular reporting."""
        return {
            "dialed": self.dialed,
            "desired": self.desired,
            "o": round(self.measured.overhead, 1),
            "g": round(self.measured.gap, 1),
            "L": round(self.measured.latency, 1),
        }


def _knobs_for(dialed: str, desired: float,
               base: LogGPParams) -> TuningKnobs:
    # max(0.0, nan) is 0.0: a NaN target would measure the baseline.
    if not math.isfinite(desired):
        raise ValueError(f"desired {dialed} must be finite, got {desired}")
    if dialed == "o":
        return TuningKnobs.added_overhead(max(0.0, desired - base.overhead))
    if dialed == "g":
        return TuningKnobs.added_gap(max(0.0, desired - base.gap))
    if dialed == "L":
        return TuningKnobs.added_latency(max(0.0, desired - base.latency))
    raise ValueError(f"unknown dial {dialed!r}")


def calibrate_machine(dialed: str, desired_values: Sequence[float],
                      params: Optional[LogGPParams] = None,
                      window: int = DEFAULT_WINDOW) -> List[CalibrationRow]:
    """Measure one column group of Table 2 (one dial, many targets)."""
    params = params or LogGPParams.berkeley_now()
    rows = []
    for desired in desired_values:
        knobs = _knobs_for(dialed, desired, params)
        measured = measure_parameters(params, knobs, window=window)
        rows.append(CalibrationRow(dialed=dialed, desired=desired,
                                   measured=measured))
    return rows


def calibration_table(params: Optional[LogGPParams] = None,
                      desired_o: Sequence[float] = DESIRED_O,
                      desired_g: Sequence[float] = DESIRED_G,
                      desired_L: Sequence[float] = DESIRED_L,
                      window: int = DEFAULT_WINDOW) -> List[CalibrationRow]:
    """The full Table 2: all three dials swept."""
    params = params or LogGPParams.berkeley_now()
    rows: List[CalibrationRow] = []
    rows += calibrate_machine("o", desired_o, params, window)
    rows += calibrate_machine("g", desired_g, params, window)
    rows += calibrate_machine("L", desired_L, params, window)
    return rows


def render_calibration(rows: List[CalibrationRow]) -> str:
    """ASCII rendering of Table 2."""
    lines = [f"{'dial':>4} {'desired':>8} | {'o':>7} {'g':>7} {'L':>7}"]
    lines.append("-" * len(lines[0]))
    for row in rows:
        cells = row.as_row()
        lines.append(f"{cells['dialed']:>4} {cells['desired']:8.1f} | "
                     f"{cells['o']:7.1f} {cells['g']:7.1f} "
                     f"{cells['L']:7.1f}")
    return "\n".join(lines)
