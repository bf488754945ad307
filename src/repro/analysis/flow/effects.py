"""The effect & rank-taint fixpoint of the whole-program checks.

Every function gets a *summary*: a set of effect atoms over the lattice

* ``blocks``      -- suspends the simulation (``yield <event>``, or any
                     reachable blocking runtime primitive);
* ``sends``       -- injects network traffic;
* ``coll:<kind>`` -- reaches the named collective;

plus two structural facts — ``gen_like`` (the function is a generator,
or forwards one via ``return g(...)``) and a rank-taint summary (which
params/locals derive from ``proc.rank`` / ``self.rank``, and whether
the return value does).

Atoms join monotonically across *resolved* call edges regardless of
delegation context: a summary answers "what is in reach", the checks
decide whether reaching it is a bug.  Unresolved calls fall back to the
intrinsic runtime-primitive pattern below, and an
unresolved ``yield from <expr>`` is conservatively blocking.  Each atom
remembers the call edge (or intrinsic site) that first introduced it,
so a finding can print the full chain down to the primitive.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.core import Frame, dotted_name, walk_scope
from repro.analysis.flow.graph import (CONTEXT_RETURNED, CallSite,
                                       FunctionInfo, ProgramIndex)

__all__ = ["infer_effects", "intrinsic_atoms", "chain_for",
           "is_runtime_primitive", "mentions_rank", "BLOCKING_PRIMITIVES",
           "COLLECTIVES", "COLLECTIVE_ROOTS"]

#: Runtime primitives that must be driven with ``yield from`` (or, for
#: raw simulator events, ``yield``).
BLOCKING_PRIMITIVES = frozenset({
    "compute", "poll", "timeout", "barrier", "broadcast", "allreduce",
    "gather", "allgather", "alltoall",
    "read", "write", "sync", "bulk_get", "bulk_put",
    "lock", "unlock", "rpc", "send_request", "send_oneway", "bulk_rpc",
    "bulk_store", "bulk_store_blocking", "bulk_oneway", "drain",
    "wait_until",
})

#: Collective operations every rank must reach identically (the
#: ``repro.coll`` entry points mirrored as ``Proc`` methods).
COLLECTIVES = frozenset({"barrier", "broadcast", "allreduce", "gather",
                         "allgather", "alltoall"})

#: Primitives that put traffic on the wire (the ``sends`` atom).
_SEND_PRIMITIVES = frozenset({
    "rpc", "send_request", "send_oneway", "bulk_rpc", "bulk_store",
    "bulk_store_blocking", "bulk_oneway",
})

#: Runtime entry points whose collective identity cannot be inferred
#: from their bodies (they dispatch through the algorithm registry):
#: (path suffix, class name or None for module-level functions).
COLLECTIVE_ROOTS = (
    ("gas/runtime.py", "Proc"),
)

_MAX_CHAIN = 25

#: Receiver spellings that identify the simulation runtime (``proc.*``,
#: ``am.*``, ``self.am.*``, ``self.sim.*`` ...), so that unrelated
#: objects with a ``write``/``read`` method are not flagged.
_RUNTIME_BASES = frozenset({"proc", "am", "self"})
_RUNTIME_SEGMENTS = frozenset({"am", "sim"})


def is_runtime_primitive(call: ast.Call, primitives: frozenset) -> bool:
    """Whether ``call`` invokes one of ``primitives`` on the runtime."""
    name = dotted_name(call.func)
    chain = name.split(".") if name else []
    if len(chain) < 2 or chain[-1] not in primitives:
        return False
    return chain[0] in _RUNTIME_BASES or \
        bool(_RUNTIME_SEGMENTS & set(chain[1:-1]))


def mentions_rank(node: ast.AST) -> bool:
    """Whether an expression names the calling rank's identity."""
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


def intrinsic_atoms(call: ast.Call) -> Set[str]:
    """Effect atoms of an *unresolved* call, by runtime-name pattern."""
    atoms: Set[str] = set()
    if is_runtime_primitive(call, BLOCKING_PRIMITIVES):
        atoms.add("blocks")
        if isinstance(call.func, ast.Attribute) and \
                call.func.attr in COLLECTIVES:
            atoms.add(f"coll:{call.func.attr}")
    if is_runtime_primitive(call, _SEND_PRIMITIVES):
        atoms.add("sends")
    return atoms


def _is_collective_root(func: FunctionInfo) -> Optional[str]:
    if func.name not in COLLECTIVES or func.enclosing is not None:
        return None
    path = func.source.path.replace("\\", "/")
    for suffix, class_name in COLLECTIVE_ROOTS:
        if path.endswith(suffix) and func.class_name == class_name:
            return func.name
    return None


def _seed(func: FunctionInfo) -> None:
    """Intrinsic atoms from the function's own body."""
    kind = _is_collective_root(func)
    if kind is not None:
        for atom in (f"coll:{kind}", "blocks", "sends"):
            func.effects.add(atom)
            func.witness.setdefault(
                atom, ("intrinsic", func.node, f"collective root {kind}"))
    for call in func.calls:
        if call.resolved:
            continue
        for atom in intrinsic_atoms(call.node):
            func.effects.add(atom)
            name = ".".join(call.chain) if call.chain else "<call>"
            func.witness.setdefault(
                atom, ("intrinsic", call.node, f"{name}(...)"))
    # ``yield from <unresolvable>`` conservatively blocks: whatever is
    # being delegated to suspends on this function's behalf.
    for node in _own_yield_froms(func):
        value = node.value
        if isinstance(value, ast.Call):
            site = _site_for(func, value)
            if site is not None and site.resolved:
                continue
        func.effects.add("blocks")
        func.witness.setdefault(
            "blocks", ("intrinsic", node, "yield from <unresolved>"))
        break


def _own_yield_froms(func: FunctionInfo) -> List[ast.YieldFrom]:
    return [n for n in walk_scope(func.node)
            if isinstance(n, ast.YieldFrom)]


def _site_for(func: FunctionInfo,
              node: ast.Call) -> Optional[CallSite]:
    for call in func.calls:
        if call.node is node:
            return call
    return None


def _tainted_expr(func: FunctionInfo, node: ast.AST) -> bool:
    """Whether an expression is rank-derived under current knowledge."""
    if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
        # Values received over the runtime are data, not rank identity
        # (a reduced sum is collectively uniform even when the request
        # that fetched it mentioned a rank).
        return False
    if mentions_rank(node):
        return True
    tainted = func.tainted_locals | func.tainted_params
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in tainted:
            return True
        if isinstance(child, ast.Call):
            site = _site_for(func, child)
            if site is not None and any(
                    t.returns_tainted for t in site.targets):
                return True
    return False


def _propagate_taint(func: FunctionInfo) -> bool:
    """One local taint pass; returns True when anything changed."""
    changed = False
    for name, value in func.assigns:
        if name in func.tainted_locals:
            continue
        if isinstance(value, (ast.Yield, ast.YieldFrom, ast.Await)):
            continue
        if _tainted_expr(func, value):
            func.tainted_locals.add(name)
            changed = True
    new_ret = any(_tainted_expr(func, value) for value in func.returns)
    if new_ret and not func.returns_tainted:
        func.returns_tainted = True
        changed = True
    return changed


def _propagate_call_taint(func: FunctionInfo) -> bool:
    """Push tainted arguments into callee parameter summaries."""
    changed = False
    for call in func.calls:
        if not call.targets:
            continue
        args = call.node.args
        keywords = call.node.keywords
        for target in call.targets:
            params = list(target.params)
            # Attribute-style calls bind the receiver to the first
            # parameter of a method; positional args start after it.
            offset = 0
            if call.chain and len(call.chain) >= 2 and \
                    target.class_name is not None and \
                    call.chain[0] != target.class_name and \
                    params and params[0] in ("self", "cls"):
                offset = 1
            for pos, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    break
                idx = pos + offset
                if idx >= len(params):
                    break
                if params[idx] not in target.tainted_params and \
                        _tainted_expr(func, arg):
                    target.tainted_params.add(params[idx])
                    changed = True
            for kw in keywords:
                if kw.arg and kw.arg in params and \
                        kw.arg not in target.tainted_params and \
                        _tainted_expr(func, kw.value):
                    target.tainted_params.add(kw.arg)
                    changed = True
    return changed


def infer_effects(index: ProgramIndex) -> None:
    """Run the joint effect / gen-like / taint fixpoint to a fixpoint."""
    for func in index.functions:
        func.gen_like = func.is_generator
        _seed(func)
    changed = True
    passes = 0
    while changed and passes < 100:
        changed = False
        passes += 1
        for func in index.functions:
            # Effect atoms across resolved edges.
            for call in func.calls:
                for target in call.targets:
                    for atom in target.effects:
                        if atom not in func.effects:
                            func.effects.add(atom)
                            func.witness[atom] = ("call", call, target)
                            changed = True
            # Generator forwarding: ``return g(...)`` of a generator.
            if not func.gen_like:
                for call in func.calls:
                    if call.context != CONTEXT_RETURNED:
                        continue
                    if any(t.gen_like for t in call.targets) or \
                            (not call.resolved and
                             is_runtime_primitive(call.node,
                                                  BLOCKING_PRIMITIVES)):
                        func.gen_like = True
                        changed = True
                        break
            # Taint.
            if _propagate_taint(func):
                changed = True
            if _propagate_call_taint(func):
                changed = True


def chain_for(func: FunctionInfo, atom: str) -> Tuple[Frame, ...]:
    """The recorded witness path from ``func`` down to ``atom``."""
    frames: List[Frame] = []
    current: Optional[FunctionInfo] = func
    while current is not None and len(frames) < _MAX_CHAIN:
        witness = current.witness.get(atom)
        if witness is None:
            break
        if witness[0] == "call":
            site = witness[1]
            frames.append(Frame(current.source.path, site.line,
                                current.display_name))
            current = witness[2]
        else:
            node = witness[1]
            frames.append(Frame(current.source.path,
                                getattr(node, "lineno", current.line),
                                current.display_name))
            break
    return tuple(frames)
