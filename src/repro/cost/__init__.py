"""simcost: predict o/g/L/G sweeps from one instrumented run.

The third tier of the analysis stack (simlint → simsan → simcost).
See ARCHITECTURE.md section 16.
"""

from repro.cost.graph import CostGraph, DepEvent, GRAPH_SCHEMA
from repro.cost.predict import (PredictedPoint, UnsupportedGraphError,
                                latency_tolerance, lp_bound,
                                predict_runtime, predict_sweep)
from repro.cost.recorder import DepRecorder, record_run

__all__ = ["CostGraph", "DepEvent", "GRAPH_SCHEMA", "DepRecorder",
           "record_run", "PredictedPoint", "UnsupportedGraphError",
           "latency_tolerance", "lp_bound", "predict_runtime",
           "predict_sweep"]
