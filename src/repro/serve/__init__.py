"""repro.serve — the open-system serving workload family.

The paper's sensitivity question (how do o, g, L, and G shift delivered
performance?) asked of a serving system instead of a batch suite: a
seeded client tier injects open arrivals from millions of simulated
users (:mod:`repro.serve.clients`) into sharded key-value and
scatter-gather services running over the AM layer
(:mod:`repro.serve.apps`), while streaming SLO instruments record
p50/p99/p999 latency, queue depths, utilization, and saturation
(:mod:`repro.serve.metrics`).  :func:`repro.harness.sweeps.run_sweep`
sweeps the machine dials, the drop rate, or the offered load itself;
:mod:`repro.serve.sweep` renders the SLO table.

Everything is bit-identical rerun-to-rerun (seeded arrivals,
round-robin frontends, deterministic sketch), so the RunCache /
ResultStore / campaign machinery applies to serving runs by
construction.
"""

from repro.serve.apps import (SERVING_APPS, FanoutServe, KVServe,
                              ServingApp, serving_app_from_dict)
from repro.serve.clients import ARRIVAL_PROCESSES, ClientTier, Request
from repro.serve.metrics import LatencySketch, ServingMetrics
from repro.serve.sweep import OFFERED_LOAD_GRID, serving_rows

__all__ = [
    "ARRIVAL_PROCESSES", "ClientTier", "Request",
    "LatencySketch", "ServingMetrics",
    "ServingApp", "KVServe", "FanoutServe", "SERVING_APPS",
    "serving_app_from_dict",
    "OFFERED_LOAD_GRID", "serving_rows",
]
