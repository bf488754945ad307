"""SPMD / generator-contract rules.

Applications run as cooperative generators: every blocking runtime
primitive (``proc.compute``, ``proc.am.rpc``, ``proc.barrier``, ...)
returns a generator that only advances simulated time when it is driven
with ``yield from``.  Calling one *without* yielding silently discards
the generator — the program computes the right answer while skipping
the time, corrupting every measurement built on it.  Collectives add a
second contract: all ranks must reach the same collective calls in the
same order, so a collective inside a rank-dependent branch is a
potential livelock.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (Finding, Rule, SourceFile, dotted_name,
                                 register_rule, walk_scope)

__all__ = ["UnyieldedBlockingCallRule", "RankDependentCollectiveRule",
           "HandlerArityRule", "HandlerPurityRule"]

#: Runtime primitives that must be driven with ``yield from`` (or, for
#: raw simulator events, ``yield``).
BLOCKING_PRIMITIVES = frozenset({
    "compute", "poll", "timeout", "barrier", "broadcast", "reduce",
    "allreduce", "gather", "scatter", "allgather", "alltoall",
    "read", "write", "sync", "bulk_get", "bulk_put",
    "lock", "unlock", "rpc", "send_request", "send_oneway", "bulk_rpc",
    "bulk_store", "bulk_store_blocking", "bulk_oneway", "drain",
    "wait_until",
})

#: Receiver spellings that identify the simulation runtime (``proc.*``,
#: ``am.*``, ``self.am.*``, ``self.sim.*`` ...), so that unrelated
#: objects with a ``write``/``read`` method are not flagged.
_RUNTIME_BASES = frozenset({"proc", "am", "self"})
_RUNTIME_SEGMENTS = frozenset({"am", "sim"})

#: Collective operations every rank must reach identically (the
#: ``repro.coll`` entry points mirrored as ``Proc`` methods).
COLLECTIVES = frozenset({"barrier", "broadcast", "reduce", "allreduce",
                         "gather", "scatter", "allgather", "alltoall"})

#: Entry points of the application contract; checked even when the
#: author forgot every ``yield`` (the degenerate form of the bug).
_CONTRACT_FUNCTIONS = frozenset({"run_rank", "setup_rank"})


def _receiver_chain(call: ast.Call) -> Optional[List[str]]:
    name = dotted_name(call.func)
    return name.split(".") if name else None


def _is_runtime_primitive(call: ast.Call, primitives: frozenset) -> bool:
    """Whether ``call`` invokes one of ``primitives`` on the runtime."""
    chain = _receiver_chain(call)
    if chain is None or len(chain) < 2:
        return False
    if chain[-1] not in primitives:
        return False
    return chain[0] in _RUNTIME_BASES or \
        bool(_RUNTIME_SEGMENTS & set(chain[1:-1]))


def _is_runtime_call(call: ast.Call) -> bool:
    return _is_runtime_primitive(call, BLOCKING_PRIMITIVES)


@register_rule
class UnyieldedBlockingCallRule(Rule):
    """A blocking primitive whose generator is never driven skips time."""

    rule_id = "unyielded-blocking-call"
    description = ("blocking runtime primitive called without yield "
                   "from inside a generator/SPMD entry point")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for func in ast.walk(source.tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            nodes = list(walk_scope(func))
            is_generator = any(
                isinstance(n, (ast.Yield, ast.YieldFrom)) for n in nodes)
            if not is_generator and \
                    func.name not in _CONTRACT_FUNCTIONS:
                continue
            yielded = set()
            for node in nodes:
                if isinstance(node, (ast.Yield, ast.YieldFrom)) and \
                        isinstance(node.value, ast.Call):
                    yielded.add(id(node.value))
            for node in nodes:
                if isinstance(node, ast.Call) and \
                        id(node) not in yielded and \
                        _is_runtime_call(node):
                    name = dotted_name(node.func)
                    yield self.finding(
                        source, node,
                        f"{name}(...) is a blocking primitive but is "
                        "not driven with 'yield from'; its simulated "
                        "time is silently skipped")


def _mentions_rank(node: ast.AST) -> bool:
    """Whether an expression depends on the calling rank's identity."""
    for child in ast.walk(node):
        ident = None
        if isinstance(child, ast.Name):
            ident = child.id
        elif isinstance(child, ast.Attribute):
            ident = child.attr
        if ident is None:
            continue
        if ident == "rank" or (ident.endswith("rank")
                               and not ident.endswith("n_rank")):
            return True
    return False


def _collective_calls(stmts: List[ast.stmt]) -> Dict[str, List[ast.Call]]:
    calls: Dict[str, List[ast.Call]] = {}
    for stmt in stmts:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in COLLECTIVES:
                name = node.func.attr
            elif isinstance(node.func, ast.Name) and \
                    node.func.id in COLLECTIVES:
                name = node.func.id
            if name is not None:
                calls.setdefault(name, []).append(node)
    return calls


@register_rule
class RankDependentCollectiveRule(Rule):
    """A collective only some ranks reach deadlocks the others."""

    rule_id = "rank-dependent-collective"
    description = ("collective call inside a rank-dependent branch; "
                   "ranks taking the other branch never arrive")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.If) or \
                    not _mentions_rank(node.test):
                continue
            body = _collective_calls(node.body)
            orelse = _collective_calls(node.orelse)
            for name, calls in body.items():
                if name in orelse:
                    continue  # balanced: both branches reach it
                for call in calls:
                    yield self.finding(
                        source, call,
                        f"{name}() inside a rank-dependent branch: "
                        "ranks on the other path never join, risking "
                        "livelock")
            for name, calls in orelse.items():
                if name in body:
                    continue
                for call in calls:
                    yield self.finding(
                        source, call,
                        f"{name}() inside a rank-dependent else-branch: "
                        "ranks on the other path never join, risking "
                        "livelock")


#: Active Message handlers receive exactly ``(am, packet)``.
_HANDLER_ARITY = 2


def _registered_handlers(
        tree: ast.AST) -> Iterator[Tuple[ast.Call, ast.AST]]:
    """Each ``register(name, handler)`` call whose handler is a lambda
    or a function defined in the same file, with that handler: the one
    walk both handler rules share."""
    functions: Dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.setdefault(node.name, node)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register"
                and len(node.args) >= 2):
            continue
        handler = node.args[1]
        if isinstance(handler, ast.Name):
            handler = functions.get(handler.id)
        if isinstance(handler, (ast.Lambda, ast.FunctionDef,
                                ast.AsyncFunctionDef)):
            yield node, handler


@register_rule
class HandlerArityRule(Rule):
    """``register(name, handler)`` with a handler of the wrong shape."""

    rule_id = "handler-arity"
    description = ("registered Active Message handler does not take "
                   "exactly (am, packet)")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for call, handler in _registered_handlers(source.tree):
            args = handler.args
            if args.vararg is not None:
                continue
            arity = len(args.posonlyargs) + len(args.args)
            if arity != _HANDLER_ARITY:
                yield self.finding(
                    source, call,
                    f"handler takes {arity} positional argument(s); "
                    "Active Message handlers are called as "
                    "handler(am, packet)")


@register_rule
class HandlerPurityRule(Rule):
    """A registered AM handler that is a generator or calls a blocking
    primitive.  The layer calls a handler once and sends the value it
    returns, so it refuses the one and never drives the other."""

    rule_id = "handler-purity"
    description = ("Active Message handler is a generator or calls a "
                   "blocking primitive; handlers run to completion and "
                   "return their reply")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        seen: Set[int] = set()
        for _call, handler in _registered_handlers(source.tree):
            if id(handler) in seen:
                continue
            seen.add(id(handler))
            nodes = list(ast.walk(handler.body)
                         if isinstance(handler, ast.Lambda)
                         else walk_scope(handler))
            if any(isinstance(n, (ast.Yield, ast.YieldFrom))
                   for n in nodes):
                yield self.finding(
                    source, handler,
                    "Active Message handler is a generator; handlers run "
                    "to completion and return their reply (a Reply with "
                    "service_us for host time)")
            for node in nodes:
                if isinstance(node, ast.Call) and _is_runtime_call(node):
                    name = dotted_name(node.func)
                    yield self.finding(
                        source, node,
                        f"{name}(...) called from an Active Message "
                        "handler; handlers run to completion and may "
                        "only compute and return their reply")
