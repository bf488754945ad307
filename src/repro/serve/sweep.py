"""Serving sweeps: dial a machine knob — or the offered load itself.

:func:`serving_sweep` is the open-system analogue of the Figure 5-8
sweeps.  It accepts the four machine dials plus ``drop_rate`` with the
shared semantics of :func:`~repro.harness.sweeps.dial_axes`, and adds
one axis closed apps don't have: ``offered_rps``, swept by rebuilding
the application with a different client-tier rate per point (the
machine stays at the baseline).  All axes are
:func:`~repro.harness.sweeps.run_sweep` calls, so the cache, the
process pool, and per-point crash resilience apply unchanged; the
offered-load axis caches correctly because the offered rate is a
constructor knob and therefore part of the app fingerprint.

:func:`serving_rows` renders a sweep into the SLO table the figure-11
artifact serializes: p50/p99/p999, goodput, throughput, drops, and the
saturation verdict per point.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.am.tuning import TuningKnobs
from repro.harness.parallel import Plan, study
from repro.harness.sweeps import (MACHINE_DIALS, SweepResult, dial_axes,
                                  run_sweep)
from repro.network.faults import FaultPlan
from repro.network.loggp import LogGPParams
from repro.serve.apps import ServingApp

__all__ = ["SERVING_DIALS", "OFFERED_LOAD_GRID", "serving_sweep",
           "serving_rows"]

#: Every axis :func:`serving_sweep` can dial: the paper's four machine
#: dials, the fault injector's drop rate, and the offered load.
SERVING_DIALS = MACHINE_DIALS + ("drop_rate", "offered_rps")

#: Default offered-load grid (requests/s of simulated time), spanning
#: comfortably-underloaded to past-saturation for the default scenario.
OFFERED_LOAD_GRID = (50_000.0, 100_000.0, 200_000.0, 400_000.0,
                     800_000.0, 1_600_000.0)


@study
def serving_sweep(app: ServingApp, n_nodes: int, parameter: str,
                  values: Sequence[float],
                  params: Optional[LogGPParams] = None,
                  knobs: Optional[TuningKnobs] = None,
                  base_plan: Optional[FaultPlan] = None,
                  **kwargs) -> Plan:
    """Sweep one axis of an open-system serving scenario.

    ``parameter`` is one of :data:`SERVING_DIALS`, each with the shared
    :func:`~repro.harness.sweeps.dial_axes` semantics: machine dials
    are absolute targets; ``drop_rate`` sweeps the drop probability of
    ``base_plan`` (the fault plan every point runs under, default
    none); and ``offered_rps`` rebuilds ``app`` per point via
    :meth:`~repro.serve.apps.ServingApp.with_changes` while ``knobs``
    (default: none) pins the machine.  Every other keyword (``seed``,
    run limits, ...) is :func:`~repro.harness.sweeps.run_sweep`'s, as
    are ``cache`` and ``jobs``.  Results carry the
    :class:`~repro.serve.metrics.ServingMetrics` under each point's
    ``result.stats.serving``.
    """
    if parameter not in SERVING_DIALS:
        raise ValueError(
            f"parameter must be one of {SERVING_DIALS}, got {parameter!r}")
    if parameter in MACHINE_DIALS and knobs is not None:
        raise ValueError(
            "knobs cannot be pinned while sweeping a machine dial")
    knob_for, fault_for, app_for = dial_axes(
        parameter, app, params=params, knobs=knobs, faults=base_plan)
    return run_sweep.plan(app, n_nodes, parameter, values, knob_for,
                          params=params, fault_for=fault_for,
                          app_for=app_for, **kwargs)


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
