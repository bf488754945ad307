"""simcost: predict o/g/L/G sweeps from one instrumented run.

The third tier of the analysis stack (simlint → simsan → simcost).
See ARCHITECTURE.md section 15.
"""

from repro.cost.graph import CostGraph, GRAPH_SCHEMA
from repro.cost.predict import (PredictedPoint, UnsupportedGraphError,
                                check_replayable, latency_tolerance, lp_bound,
                                predict_runtime, predict_sweep)
from repro.cost.recorder import DepRecorder, record_run

__all__ = ["CostGraph", "GRAPH_SCHEMA", "DepRecorder",
           "record_run", "PredictedPoint", "UnsupportedGraphError",
           "check_replayable", "latency_tolerance", "lp_bound",
           "predict_runtime", "predict_sweep"]
