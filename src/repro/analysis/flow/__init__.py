"""The whole-program SPMD checks: call graph, effects, rules.

:mod:`repro.analysis.flow.graph` builds the call graph with its
documented approximations, :mod:`repro.analysis.flow.effects` runs the
effect/rank-taint fixpoint over it, and :mod:`repro.analysis.flow.checks`
registers one rule per SPMD property in the one rule catalogue; every
``python -m repro.analysis`` run applies them.
"""

from repro.analysis.flow.checks import build_program, find_handlers
from repro.analysis.flow.effects import chain_for, infer_effects
from repro.analysis.flow.graph import (CallSite, FunctionInfo,
                                       ProgramIndex, build_index)

__all__ = [
    "build_program", "build_index", "infer_effects", "find_handlers",
    "chain_for", "CallSite", "FunctionInfo", "ProgramIndex",
]
