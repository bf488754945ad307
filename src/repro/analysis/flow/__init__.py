"""simflow: whole-program effect & SPMD-congruence analysis.

The interprocedural tier of the correctness stack (simlint checks one
function at a time, simsan checks one execution at a time; simflow
checks every path through every call chain, statically).  See
:mod:`repro.analysis.flow.graph` for the call-graph approximations,
:mod:`repro.analysis.flow.effects` for the summary lattice, and
:mod:`repro.analysis.flow.checks` for the three shipped checks.  Run it
with ``python -m repro.analysis --deep``.
"""

from repro.analysis.flow.checks import FLOW_RULES, find_handlers, run_checks
from repro.analysis.flow.driver import (DEFAULT_FLOW_BASELINE_NAME,
                                        analyze_program, build_program)
from repro.analysis.flow.effects import chain_for, infer_effects
from repro.analysis.flow.graph import (CallSite, FunctionInfo,
                                       ProgramIndex, build_index)

__all__ = [
    "FLOW_RULES", "DEFAULT_FLOW_BASELINE_NAME", "analyze_program",
    "build_program", "build_index", "infer_effects", "run_checks",
    "find_handlers", "chain_for", "CallSite", "FunctionInfo",
    "ProgramIndex",
]
