"""Serving sweeps, rendered.

The open-system analogue of the Figure 5-8 sweeps is the same
:func:`~repro.harness.sweeps.run_sweep`: a serving app takes every row
of :data:`~repro.harness.sweeps.DIALS` a closed app takes, plus the one
axis closed apps don't have, ``offered_rps``, which rebuilds the
application with a different client-tier rate per point (the machine
stays where ``knobs=`` pins it).  That axis caches correctly because
the offered rate is a constructor knob and therefore part of the app
fingerprint.

:func:`serving_rows` renders a sweep into the SLO table the figure-11
artifact serializes: p50/p99/p999, goodput, throughput, drops, and the
saturation verdict per point.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.harness.sweeps import DIALS, SweepResult

__all__ = ["OFFERED_LOAD_GRID", "serving_rows"]

#: Default offered-load grid (requests/s of simulated time): the
#: ``offered_rps`` row's.
OFFERED_LOAD_GRID = DIALS["offered_rps"].grid


def serving_rows(sweep: SweepResult) -> list:
    """Flatten one serving sweep into SLO-table rows.

    One row per point: the dialed value, the latency percentiles, the
    goodput/throughput rates, drop counts, and the structured verdict.
    Failed points (deadlock/livelock/budget) keep their failure
    category with ``N/A`` metrics, exactly like the closed-app tables.
    """
    rows = []
    for point in sweep.points:
        row = {
            "app": sweep.app_name,
            "parameter": sweep.parameter,
            "value": point.value,
            "p50_us": "N/A", "p99_us": "N/A", "p999_us": "N/A",
            "goodput_rps": "N/A", "throughput_rps": "N/A",
            "slo_attainment": "N/A",
            "completed": "N/A", "dropped": "N/A",
            "max_queue_depth": "N/A",
            "verdict": point.failure_category or "",
        }
        serving = (getattr(point.result.stats, "serving", None)
                   if point.completed else None)
        if serving is not None:
            def _round(value: Optional[float]) -> Any:
                return "N/A" if value is None else round(value, 2)
            row.update({
                "p50_us": _round(serving.p50_us),
                "p99_us": _round(serving.p99_us),
                "p999_us": _round(serving.p999_us),
                "goodput_rps": _round(serving.goodput_rps),
                "throughput_rps": _round(serving.throughput_rps),
                "slo_attainment": _round(serving.slo_attainment),
                "completed": serving.completed,
                "dropped": serving.dropped,
                "max_queue_depth": serving.max_queue_depth,
                "verdict": serving.verdict,
            })
        rows.append(row)
    return rows
