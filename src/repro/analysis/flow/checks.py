"""The three simflow checks.

Each check consumes the fixpoint summaries from
:mod:`repro.analysis.flow.effects` and reports only what the
intra-procedural simlint rules *cannot* see: a defect becomes a flow
finding when the offending effect sits behind at least one resolved
call edge (or when the rank taint that guards it flowed in through a
parameter).  Sites the simlint pack already flags directly are skipped,
so ``--deep`` never double-reports.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Finding, Frame
from repro.analysis.flow.effects import chain_for, intrinsic_atoms
from repro.analysis.flow.graph import (CONTEXT_DROPPED, CallSite,
                                       FunctionInfo, ProgramIndex)
from repro.analysis.rules.spmd import (BLOCKING_PRIMITIVES, COLLECTIVES,
                                       _CONTRACT_FUNCTIONS,
                                       _is_runtime_primitive,
                                       _mentions_rank)

__all__ = ["FLOW_RULES", "run_checks", "find_handlers"]

#: rule id -> (severity, one-line description) for the CLI catalogue.
FLOW_RULES = {
    "flow-transitive-blocking": (
        "error",
        "a generator discards a call whose callee blocks further down "
        "the call chain"),
    "flow-rank-collective": (
        "error",
        "a collective is reachable only under a rank-dependent branch, "
        "through any call depth"),
    "flow-yield-integrity": (
        "error",
        "a non-generator function discards a blocking call it cannot "
        "drive"),
}


def _finding(func: FunctionInfo, node: ast.AST, rule: str, message: str,
             chain: Tuple[Frame, ...]) -> Finding:
    return Finding(
        path=func.source.path,
        line=getattr(node, "lineno", func.line),
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        severity=FLOW_RULES[rule][0],
        message=message,
        end_line=getattr(node, "end_lineno", None)
        or getattr(node, "lineno", func.line),
        chain=chain,
    )


def _call_display(call: CallSite) -> str:
    return ".".join(call.chain) if call.chain else "<call>"


# -- handler discovery ------------------------------------------------------

def find_handlers(index: ProgramIndex) -> Set[FunctionInfo]:
    """Every function registered as an Active Message handler."""
    handlers: Set[FunctionInfo] = set()
    for func in index.functions:
        for call in func.calls:
            if not call.chain or call.chain[-1] != "register" or \
                    len(call.node.args) < 2:
                continue
            target = call.node.args[1]
            if isinstance(target, ast.Name):
                handlers.update(index._resolve_bare(func, target.id))
            elif isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name):
                handlers.update(index._resolve_attr(
                    func, target.value.id, target.attr))
    return handlers


# -- check 1: transitive unyielded blocking ---------------------------------

def _check_transitive_blocking(index: ProgramIndex) -> Iterator[Finding]:
    for func in index.functions:
        if not (func.gen_like or func.name in _CONTRACT_FUNCTIONS):
            continue
        for call in func.calls:
            if call.context != CONTEXT_DROPPED:
                continue
            if _is_runtime_primitive(call.node, BLOCKING_PRIMITIVES):
                continue   # direct primitive: simlint's finding
            guilty = [t for t in call.targets
                      if t.gen_like and "blocks" in t.effects]
            if not guilty:
                continue
            target = guilty[0]
            chain = (Frame(func.source.path, call.line,
                           func.display_name),) + chain_for(target, "blocks")
            yield _finding(
                func, call.node, "flow-transitive-blocking",
                f"{_call_display(call)}(...) returns a blocking "
                f"generator ({target.display_name} blocks "
                f"{_depth_word(chain)}) but the result is discarded; "
                "its simulated time is silently skipped",
                chain)


def _depth_word(chain: Tuple[Frame, ...]) -> str:
    edges = max(len(chain) - 1, 1)
    return f"{edges} call edge{'s' if edges != 1 else ''} down"


# -- check 2: interprocedural SPMD congruence -------------------------------

def _collective_kinds(func: FunctionInfo, stmts: List[ast.stmt]
                      ) -> Dict[str, Tuple[CallSite,
                                           Optional[FunctionInfo], bool]]:
    """kind -> (witness site, callee or None, textually-direct?) for
    every collective reachable from ``stmts``."""
    ids: Set[int] = set()
    for stmt in stmts:
        ids.update(id(node) for node in ast.walk(stmt))
    kinds: Dict[str, Tuple[CallSite, Optional[FunctionInfo], bool]] = {}
    for call in func.calls:
        if id(call.node) not in ids:
            continue
        # Textually direct collectives — what simlint's balance logic
        # sees: any bare or attribute call named like a collective.
        direct = None
        if call.chain and call.chain[-1] in COLLECTIVES:
            direct = call.chain[-1]
            kinds.setdefault(direct, (call, None, True))
        for target in call.targets:
            for atom in sorted(target.effects):
                if atom.startswith("coll:"):
                    kind = atom.split(":", 1)[1]
                    if kind != direct:
                        kinds.setdefault(kind, (call, target, False))
        if not call.targets:
            for atom in sorted(intrinsic_atoms(call.node)):
                if atom.startswith("coll:"):
                    kinds.setdefault(atom.split(":", 1)[1],
                                     (call, None, True))
    return kinds


def _terminates(stmts: List[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


def _test_tainted(func: FunctionInfo, test: ast.expr) -> Tuple[bool, bool]:
    """(tainted?, visible-to-simlint?) for a branch condition."""
    if _mentions_rank(test):
        return True, True
    tainted = func.tainted_locals | func.tainted_params
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in tainted:
            return True, False
    return False, False


def _check_rank_collective(index: ProgramIndex) -> Iterator[Finding]:
    for func in index.functions:
        for if_node, block, pos in func.branches:
            tainted, syntactic = _test_tainted(func, if_node.test)
            if not tainted:
                continue
            eff_body = _collective_kinds(func, if_node.body)
            eff_else = _collective_kinds(func, if_node.orelse)
            # A side that exits early (``if rank...: return``) makes the
            # rest of the block part of the *other* side's path.  A
            # direct collective there is invisible to simlint's
            # branch-local balance check, so it never counts as direct.
            body_term = _terminates(if_node.body)
            else_term = bool(if_node.orelse) and _terminates(if_node.orelse)
            if body_term != else_term:
                continuation = _collective_kinds(func, block[pos + 1:])
                grown = eff_else if body_term else eff_body
                for kind, (site, target, _direct) in continuation.items():
                    grown.setdefault(kind, (site, target, False))
            for kinds, other in ((eff_body, eff_else),
                                 (eff_else, eff_body)):
                for kind, (site, target, direct) in sorted(kinds.items()):
                    if kind in other:
                        continue   # balanced: both paths reach it
                    if direct and syntactic:
                        continue   # simlint's rank-dependent-collective
                    chain = (Frame(func.source.path, site.line,
                                   func.display_name),)
                    if target is not None:
                        chain += chain_for(target, f"coll:{kind}")
                    guard = ("rank-dependent guard"
                             if syntactic else
                             "guard on a rank-tainted value")
                    yield _finding(
                        func, site.node, "flow-rank-collective",
                        f"{kind}() is reachable by only some ranks "
                        f"because of a {guard} at line "
                        f"{if_node.lineno}; ranks on the other path "
                        "never join, risking livelock",
                        chain)


# -- check 3: yield-chain integrity -----------------------------------------

def _check_yield_integrity(
        index: ProgramIndex,
        handlers: Set[FunctionInfo]) -> Iterator[Finding]:
    for func in index.functions:
        if func.gen_like or func.name in _CONTRACT_FUNCTIONS:
            continue
        for call in func.calls:
            if call.context != CONTEXT_DROPPED:
                continue
            if not call.resolved and \
                    _is_runtime_primitive(call.node, BLOCKING_PRIMITIVES):
                if func in handlers:
                    continue   # direct in a handler: simlint's
                chain = (Frame(func.source.path, call.line,
                               func.display_name),)
                yield _finding(
                    func, call.node, "flow-yield-integrity",
                    f"{_call_display(call)}(...) is a blocking "
                    f"primitive but {func.display_name} is not a "
                    "generator and cannot drive it; its simulated time "
                    "is silently skipped",
                    chain)
                continue
            guilty = [t for t in call.targets
                      if t.gen_like and "blocks" in t.effects]
            if not guilty:
                continue
            target = guilty[0]
            chain = (Frame(func.source.path, call.line,
                           func.display_name),) + chain_for(target, "blocks")
            fix = ("handlers run to completion, so block in SPMD code "
                   "instead" if func in handlers else
                   "make it a generator and 'yield from' the call")
            yield _finding(
                func, call.node, "flow-yield-integrity",
                f"{_call_display(call)}(...) returns a blocking "
                f"generator but {func.display_name} is not a generator "
                f"and cannot drive it; {fix}",
                chain)


def run_checks(index: ProgramIndex) -> List[Finding]:
    """All flow findings over an indexed, effect-annotated program."""
    handlers = find_handlers(index)
    findings: List[Finding] = []
    findings.extend(_check_transitive_blocking(index))
    findings.extend(_check_rank_collective(index))
    findings.extend(_check_yield_integrity(index, handlers))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return findings
