"""The simflow driver: sources in, suppression-filtered findings out.

``analyze_program`` is the whole-program counterpart of
:func:`repro.analysis.core.analyze_source`: it indexes every parsed
module once, runs the effect/taint fixpoint, applies the three checks,
and filters the results through the same ``# simlint: disable=...``
comment machinery — flow rule ids (``flow-*``) work in the same
suppression lists as the per-file rules.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.core import Finding, SourceFile
from repro.analysis.flow.checks import FLOW_RULES, run_checks
from repro.analysis.flow.effects import infer_effects
from repro.analysis.flow.graph import ProgramIndex, build_index

__all__ = ["analyze_program", "build_program", "FLOW_RULES",
           "DEFAULT_FLOW_BASELINE_NAME"]

#: Conventional flow baseline location at the repository root
#: (kept separate from simlint's: the two gates evolve independently).
DEFAULT_FLOW_BASELINE_NAME = "simflow.baseline.json"


def build_program(sources: Dict[str, SourceFile]) -> ProgramIndex:
    """Index + effect fixpoint over every parseable source."""
    ordered = [sources[path] for path in sorted(sources)]
    index = build_index(src for src in ordered if src.tree is not None)
    infer_effects(index)
    return index


def analyze_program(sources: Dict[str, SourceFile]) -> List[Finding]:
    """All unsuppressed flow findings across ``sources``."""
    index = build_program(sources)
    findings: List[Finding] = []
    for finding in run_checks(index):
        source = sources.get(finding.path)
        if source is not None and source.is_suppressed(finding):
            continue
        findings.append(finding)
    return findings
