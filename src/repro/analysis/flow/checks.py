"""The SPMD checks: one whole-program rule per property.

Applications run as cooperative generators: every blocking runtime
primitive (``proc.compute``, ``proc.am.rpc``, ``proc.barrier``, ...)
returns a generator that only advances simulated time when it is driven
with ``yield from``.  Calling one *without* yielding silently discards
the generator — the program computes the right answer while skipping
the time, corrupting every measurement built on it.  Collectives add a
second contract: all ranks must reach the same collective calls in the
same order, so a collective only some ranks reach is a potential
livelock.  Active Message handlers add a third: the layer calls a
handler once and sends the value it returns, so a handler must not
block.

Each rule consumes the call graph of :mod:`repro.analysis.flow.graph`
and the fixpoint summaries of :mod:`repro.analysis.flow.effects`, and
reports a defect whether it sits in the function itself or behind any
number of resolved call edges; a finding that crosses a call carries
the chain down to the blocking primitive.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (Finding, Frame, ProgramRule,
                                 register_rule)
from repro.analysis.flow.effects import (BLOCKING_PRIMITIVES, COLLECTIVES,
                                         chain_for, infer_effects,
                                         is_runtime_primitive,
                                         mentions_rank)
from repro.analysis.flow.graph import (CONTEXT_DELEGATED, CONTEXT_DROPPED,
                                       CONTEXT_RETURNED, CallSite,
                                       FunctionInfo, ProgramIndex,
                                       build_index)

__all__ = ["build_program", "find_handlers", "UnyieldedBlockingCallRule",
           "RankDependentCollectiveRule", "YieldIntegrityRule",
           "HandlerArityRule", "HandlerPurityRule"]

#: Entry points of the application contract; checked even when the
#: author forgot every ``yield`` (the degenerate form of the bug).
_CONTRACT_FUNCTIONS = frozenset({"run_rank", "setup_rank"})

#: Active Message handlers receive exactly ``(am, packet)``.
_HANDLER_ARITY = 2


def build_program(sources) -> ProgramIndex:
    """Index, effect fixpoint and handler set over every parseable
    source in ``sources`` (a path -> ``SourceFile`` dict)."""
    ordered = [sources[path] for path in sorted(sources)]
    index = build_index(src for src in ordered if src.tree is not None)
    infer_effects(index)
    index.handlers = find_handlers(index)
    return index


def _call_display(call: CallSite) -> str:
    return ".".join(call.chain) if call.chain else "<call>"


def _frame(func: FunctionInfo, call: CallSite) -> Frame:
    return Frame(func.source.path, call.line, func.display_name)


def _blocking_target(call: CallSite) -> Optional[FunctionInfo]:
    """The first resolved callee that returns a blocking generator."""
    for target in call.targets:
        if target.gen_like and "blocks" in target.effects:
            return target
    return None


def _depth_word(chain: Tuple[Frame, ...]) -> str:
    edges = max(len(chain) - 1, 1)
    return f"{edges} call edge{'s' if edges != 1 else ''} down"


# -- handler discovery ------------------------------------------------------

def find_handlers(index: ProgramIndex
                  ) -> Dict[FunctionInfo, List[Tuple[FunctionInfo,
                                                     CallSite]]]:
    """Every function or lambda registered as an Active Message
    handler, mapped to its ``(registering function, register site)``
    pairs."""
    handlers: Dict[FunctionInfo, List[Tuple[FunctionInfo, CallSite]]] = {}
    for func in index.functions:
        for call in func.calls:
            if not call.chain or call.chain[-1] != "register" or \
                    len(call.node.args) < 2:
                continue
            target = call.node.args[1]
            found: List[FunctionInfo] = []
            if isinstance(target, ast.Lambda):
                found = [index.lambdas[id(target)]]
            elif isinstance(target, ast.Name):
                found = index._resolve_bare(func, target.id)
            elif isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name):
                found = index._resolve_attr(func, target.value.id,
                                            target.attr)
            for handler in found:
                if handler.name != "__init__":   # a class, not a handler
                    handlers.setdefault(handler, []).append((func, call))
    return handlers


# -- blocking calls ---------------------------------------------------------

@register_rule
class UnyieldedBlockingCallRule(ProgramRule):
    """A generator that does not drive a blocking generator skips its
    simulated time: a direct primitive anywhere but under ``yield
    from``, or a dropped call whose callee blocks further down."""

    rule_id = "unyielded-blocking-call"
    description = ("blocking call inside a generator/SPMD entry point "
                   "not driven with yield from, directly or through "
                   "any call depth")

    def check_program(self, program: ProgramIndex) -> Iterator[Finding]:
        for func in program.functions:
            entry = func.name in _CONTRACT_FUNCTIONS
            if func in program.handlers or not (func.gen_like or entry):
                continue   # handlers: handler-purity's beat
            for call in func.calls:
                if call.context == CONTEXT_DELEGATED:
                    continue
                if is_runtime_primitive(call.node, BLOCKING_PRIMITIVES):
                    if func.is_generator or entry:
                        yield self.finding(
                            func.source, call.node,
                            f"{_call_display(call)}(...) is a blocking "
                            "primitive but is not driven with 'yield "
                            "from'; its simulated time is silently "
                            "skipped")
                    continue
                target = _blocking_target(call)
                if call.context != CONTEXT_DROPPED or target is None:
                    continue
                chain = (_frame(func, call),) + chain_for(target, "blocks")
                yield self.finding(
                    func.source, call.node,
                    f"{_call_display(call)}(...) returns a blocking "
                    f"generator ({target.display_name} blocks "
                    f"{_depth_word(chain)}) but the result is discarded; "
                    "its simulated time is silently skipped",
                    chain)


@register_rule
class YieldIntegrityRule(ProgramRule):
    """A plain function cannot drive the blocking generator it drops."""

    rule_id = "yield-integrity"
    description = ("a non-generator function discards a blocking call "
                   "it cannot drive")

    def check_program(self, program: ProgramIndex) -> Iterator[Finding]:
        for func in program.functions:
            if func.gen_like or func.name in _CONTRACT_FUNCTIONS or \
                    func in program.handlers:
                continue
            for call in func.calls:
                if call.context != CONTEXT_DROPPED:
                    continue
                if not call.resolved and \
                        is_runtime_primitive(call.node, BLOCKING_PRIMITIVES):
                    yield self.finding(
                        func.source, call.node,
                        f"{_call_display(call)}(...) is a blocking "
                        f"primitive but {func.display_name} is not a "
                        "generator and cannot drive it; its simulated "
                        "time is silently skipped",
                        (_frame(func, call),))
                    continue
                target = _blocking_target(call)
                if target is None:
                    continue
                yield self.finding(
                    func.source, call.node,
                    f"{_call_display(call)}(...) returns a blocking "
                    f"generator but {func.display_name} is not a "
                    "generator and cannot drive it; make it a generator "
                    "and 'yield from' the call",
                    (_frame(func, call),) + chain_for(target, "blocks"))


# -- collectives ------------------------------------------------------------

def _collective_kinds(func: FunctionInfo, stmts: List[ast.stmt]
                      ) -> Dict[str, Tuple[CallSite,
                                           Optional[FunctionInfo]]]:
    """kind -> (witness site, callee or None when the site names the
    collective itself) for every collective reachable from ``stmts``."""
    ids: Set[int] = set()
    for stmt in stmts:
        ids.update(id(node) for node in ast.walk(stmt))
    kinds: Dict[str, Tuple[CallSite, Optional[FunctionInfo]]] = {}
    for call in func.calls:
        if id(call.node) not in ids:
            continue
        if call.chain and call.chain[-1] in COLLECTIVES:
            kinds.setdefault(call.chain[-1], (call, None))
        for target in call.targets:
            for atom in sorted(target.effects):
                if atom.startswith("coll:"):
                    kinds.setdefault(atom.split(":", 1)[1], (call, target))
    return kinds


def _terminates(stmts: List[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))


def _rank_guard(func: FunctionInfo, test: ast.expr) -> Optional[str]:
    """How a branch condition depends on the rank, or None."""
    if mentions_rank(test):
        return "rank-dependent guard"
    tainted = func.tainted_locals | func.tainted_params
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id in tainted:
            return "guard on a rank-tainted value"
    return None


@register_rule
class RankDependentCollectiveRule(ProgramRule):
    """A collective only some ranks reach deadlocks the others."""

    rule_id = "rank-dependent-collective"
    description = ("a collective is reachable only under a "
                   "rank-dependent branch, directly or through any "
                   "call depth")

    def check_program(self, program: ProgramIndex) -> Iterator[Finding]:
        for func in program.functions:
            reported: Set[Tuple[int, str]] = set()
            for if_node, block, pos in func.branches:
                guard = _rank_guard(func, if_node.test)
                if guard is None:
                    continue
                body = _collective_kinds(func, if_node.body)
                orelse = _collective_kinds(func, if_node.orelse)
                # A side that exits early (``if rank...: return``) makes
                # the rest of the block part of the *other* side's path.
                body_term = _terminates(if_node.body)
                if body_term != _terminates(if_node.orelse):
                    grown = orelse if body_term else body
                    rest = _collective_kinds(func, block[pos + 1:])
                    for kind, witness in rest.items():
                        grown.setdefault(kind, witness)
                for kinds, other in ((body, orelse), (orelse, body)):
                    for kind, (site, target) in sorted(kinds.items()):
                        key = (id(site.node), kind)
                        if kind in other or key in reported:
                            continue   # balanced, or seen by an outer if
                        reported.add(key)
                        chain = (_frame(func, site),)
                        if target is not None:
                            chain += chain_for(target, f"coll:{kind}")
                        yield self.finding(
                            func.source, site.node,
                            f"{kind}() is reachable by only some ranks "
                            f"because of a {guard} at line "
                            f"{if_node.lineno}; ranks on the other path "
                            "never join, risking livelock",
                            chain)


# -- Active Message handlers ------------------------------------------------

@register_rule
class HandlerArityRule(ProgramRule):
    """``register(name, handler)`` with a handler of the wrong shape."""

    rule_id = "handler-arity"
    description = ("registered Active Message handler does not take "
                   "exactly (am, packet)")

    def check_program(self, program: ProgramIndex) -> Iterator[Finding]:
        for handler, sites in program.handlers.items():
            args = handler.node.args
            if args.vararg is not None:
                continue
            declared = len(args.posonlyargs) + len(args.args)
            for func, call in sites:
                arity = declared
                spelled = call.node.args[1]
                if isinstance(spelled, ast.Attribute) and \
                        handler.class_name is not None and \
                        spelled.value.id != handler.class_name:
                    arity -= 1   # a bound method: self is supplied
                if arity != _HANDLER_ARITY:
                    yield self.finding(
                        func.source, call.node,
                        f"handler takes {arity} positional argument(s); "
                        "Active Message handlers are called as "
                        "handler(am, packet)")


@register_rule
class HandlerPurityRule(ProgramRule):
    """A registered AM handler that is a generator or reaches a blocking
    call.  The layer calls a handler once and sends the value it
    returns, so it refuses the one and never drives the other: a
    returned generator would go out as the reply payload."""

    rule_id = "handler-purity"
    description = ("Active Message handler is a generator or reaches a "
                   "blocking call; handlers run to completion and "
                   "return their reply")

    def check_program(self, program: ProgramIndex) -> Iterator[Finding]:
        for handler in program.handlers:
            if handler.is_generator:
                yield self.finding(
                    handler.source, handler.node,
                    "Active Message handler is a generator; handlers run "
                    "to completion and return their reply (a Reply with "
                    "service_us for host time)")
            for call in handler.calls:
                if is_runtime_primitive(call.node, BLOCKING_PRIMITIVES):
                    yield self.finding(
                        handler.source, call.node,
                        f"{_call_display(call)}(...) called from an "
                        "Active Message handler; handlers run to "
                        "completion and may only compute and return "
                        "their reply")
                    continue
                target = _blocking_target(call)
                if target is None or \
                        call.context not in (CONTEXT_DROPPED,
                                             CONTEXT_RETURNED):
                    continue
                fate = ("returns as its reply"
                        if call.context == CONTEXT_RETURNED
                        else "discards")
                yield self.finding(
                    handler.source, call.node,
                    f"{_call_display(call)}(...) returns a blocking "
                    f"generator that the handler {fate}; handlers run to "
                    "completion, so block in SPMD code instead",
                    (_frame(handler, call),) + chain_for(target, "blocks"))
