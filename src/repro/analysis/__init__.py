"""simlint: static determinism & SPMD-correctness analysis.

The reproduction's methodology rests on two mechanical invariants —
every run is a pure, bit-deterministic function of its configuration,
and every SPMD program drives the runtime's blocking primitives through
``yield from`` — and this package enforces both: per-file AST rules for
the first, whole-program call-graph rules for the second, one catalogue
for all.  See :mod:`repro.analysis.core` for the engine,
:mod:`repro.analysis.rules` and :mod:`repro.analysis.flow` for the
shipped rules, and ``python -m repro.analysis --list-rules`` for the
catalogue.
"""

from repro.analysis.cli import main
from repro.analysis.core import (Finding, Frame, ProgramRule, Rule,
                                 SourceFile, all_rules, analyze_file,
                                 analyze_paths, analyze_source,
                                 analyze_sources, default_rules,
                                 load_source, register_rule)
from repro.analysis.flow import build_program

__all__ = [
    "Finding", "Frame", "Rule", "ProgramRule", "SourceFile",
    "all_rules", "default_rules",
    "register_rule", "analyze_file", "analyze_paths", "analyze_source",
    "analyze_sources", "build_program", "load_source", "main",
]
