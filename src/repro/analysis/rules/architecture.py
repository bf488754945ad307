"""Architecture rules: one mechanism per job, kept mechanically.

The paper's method holds only if the four dials are the only way
simulated time is charged or observed.  These rules keep the layering
that guarantees it.  They match names in the syntax tree, so docstrings
and comments may say what they like.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.core import (Finding, ProgramRule, Rule, SourceFile,
                                 register_rule)
from repro.analysis.flow.effects import COLLECTIVES

__all__ = ["KernelInternalsRule", "PacketKindMemberRule", "OneBusRule",
           "OneMachineRule", "OneCollectivePathRule", "OneDrainRule"]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _path(source: SourceFile) -> str:
    return "/" + source.path.replace("\\", "/")


def _in(source: SourceFile, *packages: str) -> bool:
    return any(f"/{package}/" in _path(source) for package in packages)


def _named(node: Optional[ast.AST]) -> Optional[str]:
    """The identifier ``node`` introduces or refers to, if it is one."""
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg
    return node.id if isinstance(node, ast.Name) \
        else getattr(node, "attr", None)


def _callee(node: ast.AST) -> Optional[str]:
    return _named(node.func) if isinstance(node, ast.Call) else None


def _method_nodes(tree: ast.AST, cls: str, method: str) -> Set[ast.AST]:
    """Every node inside the ``method`` of each class named ``cls``."""
    nodes: Set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            nodes.update(*(ast.walk(item) for item in node.body
                           if isinstance(item, _FUNCTIONS)
                           and item.name == method))
    return nodes


def _owners(tree: ast.AST, kinds=_FUNCTIONS) -> Dict[ast.AST, ast.AST]:
    """Every node, in source order -> the outermost function (of
    ``kinds``) that contains it, or None at module level."""
    owner: Dict[ast.AST, ast.AST] = {}
    stack = [(tree, None)]
    while stack:
        node, top = stack.pop()
        top = top or (node if isinstance(node, kinds) else None)
        owner[node] = top
        stack.extend((child, top) for child in
                     reversed(list(ast.iter_child_nodes(node))))
    return owner


@register_rule
class KernelInternalsRule(Rule):
    """An occurrence nobody waits on is not an ``Event``: outside
    ``sim/`` a callback goes through ``call_in``, a sleep yields the
    delay and a one-waiter wait is a ``Park``; only the event loop
    assigns ``now``."""

    rule_id = "kernel-internals"
    description = ("outside sim/: a .timeout( or .event( call, a "
                   ".callbacks access or a store to .now")
    exempt_path_parts = ("sim",)

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if _callee(node) in ("timeout", "event") \
                    and isinstance(node.func, ast.Attribute):
                yield self.finding(source, node, f".{_callee(node)}( "
                                   "builds an Event outside the kernel")
            elif isinstance(node, ast.Attribute) and (
                    node.attr == "callbacks" or node.attr == "now"
                    and not isinstance(node.ctx, ast.Load)):
                yield self.finding(source, node, f".{node.attr} is the "
                                   "event loop's to touch")


@register_rule
class PacketKindMemberRule(Rule):
    """``PacketKind.REQUEST`` goes through the enum metaclass; functions
    read the names ``network/packet.py`` binds once."""

    rule_id = "packet-kind-member"
    description = "a function reads PacketKind.<member>"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        owner = _owners(source.tree, _FUNCTIONS + (ast.Lambda,))
        for node, function in owner.items():
            if function is not None and isinstance(node, ast.Attribute) \
                    and _named(node.value) == "PacketKind" \
                    and node.attr.isupper():
                yield self.finding(source, node, f"use network.packet."
                                   f"{node.attr}, bound once")


_OBSERVERS = frozenset({"tracer", "sanitizer", "recorder"})


@register_rule
class OneBusRule(Rule):
    """The layers fire the hooks of ``instruments.probes.HOOKS``; below
    the harness only ``Cluster.run`` knows which observers exist."""

    rule_id = "one-bus"
    description = ("am/, network/, gas/ or coll/ names an observer or "
                   "calls stats.on_*; cluster/ names one outside "
                   "Cluster.run and RunResult fields")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        layer = _in(source, "am", "network", "gas", "coll")
        if not layer and not _in(source, "cluster"):
            return
        allowed = _method_nodes(source.tree, "Cluster", "run")
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunResult":
                allowed.update(item.target for item in node.body
                               if isinstance(item, ast.AnnAssign))
        for node in ast.walk(source.tree):
            if _named(node) in _OBSERVERS and (layer or node not in allowed):
                yield self.finding(source, node, f"names the observer "
                                   f"{_named(node)!r}; fire a hook")
            elif layer and (_callee(node) or "").startswith("on_") \
                    and _named(getattr(node.func, "value", None)) == "stats":
                yield self.finding(source, node, "stats.on_*( bypasses "
                                   "the bus")


@register_rule
class OneMachineRule(Rule):
    """One wiring of the hardware: a ``Wire`` and the ``AmLayer`` s on it
    are built only by ``Cluster.machine``, which ``Cluster.run`` and the
    calibration microbenchmarks both build through."""

    rule_id = "one-machine"
    description = "Wire( or AmLayer( outside Cluster.machine"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        allowed = _method_nodes(source.tree, "Cluster", "machine")
        for node in ast.walk(source.tree):
            if _callee(node) in ("Wire", "AmLayer") and node not in allowed:
                yield self.finding(source, node, f"{_callee(node)}( outside "
                                   "Cluster.machine; build through it")


@register_rule
class OneCollectivePathRule(Rule):
    """Every collective is a ``repro.coll`` schedule: only ``coll/``
    touches ``collective_box`` (``Proc.__init__`` creates it), and each
    ``Proc`` primitive method calls ``pick`` once; nothing else does."""

    rule_id = "one-collective-path"
    description = ("collective_box outside coll/, or pick( outside "
                   "Proc's primitive methods (once each)")

    def check(self, source: SourceFile) -> Iterator[Finding]:
        allowed: Set[ast.AST] = set()
        for proc in ast.walk(source.tree) if _in(source, "gas") else ():
            if not (isinstance(proc, ast.ClassDef) and proc.name == "Proc"):
                continue
            methods = {item.name: item for item in proc.body
                       if isinstance(item, _FUNCTIONS)}
            init = methods.get("__init__")
            allowed.update([
                node.target for node in (ast.walk(init) if init else ())
                if isinstance(node, ast.AnnAssign)
                and isinstance(node.value, ast.Dict) and not node.value.keys
                and _named(node.target) == "collective_box"][:1])
            for name in sorted(COLLECTIVES.intersection(methods)):
                picks = [node for node in ast.walk(methods[name])
                         if _callee(node) == "pick"]
                allowed.update(picks)
                if len(picks) != 1:
                    yield self.finding(source, methods[name], f"Proc.{name} "
                                       f"picks {len(picks)} times, not once")
        for node in ast.walk(source.tree):
            if node in allowed:
                continue
            if isinstance(node, ast.Attribute) and not _in(source, "coll") \
                    and node.attr == "collective_box":
                yield self.finding(source, node, "only coll/ touches "
                                   "collective_box")
            elif _callee(node) == "pick":
                yield self.finding(source, node, "pick( outside Proc's "
                                   "primitive methods")


#: The drivers' artifact modes: each plans everything, then drains once.
_DRIVERS = {"/harness/__main__.py": "main", "/cost/cli.py": "_cmd_report"}
_POOL = frozenset({"ProcessPoolExecutor", "as_completed",
                   "BrokenProcessPool"})
_SIMULATES = frozenset({"record_run", "run"})


def _builds(owner: Dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    """What a module hands to ``Plan(...)`` and ``.then(...)`` as the
    build: lambdas, and every function of the passed name."""
    defs: Dict[str, List[ast.AST]] = {}
    for node in owner:
        if isinstance(node, _FUNCTIONS):
            defs.setdefault(node.name, []).append(node)
    for call in owner:
        for arg in call.args[1:2] if _callee(call) == "Plan" else \
                call.args[:1] if _callee(call) == "then" else ():
            yield from [arg] if isinstance(arg, ast.Lambda) else \
                defs.get(_named(arg), [])


@register_rule
class OneDrainRule(ProgramRule):
    """The harness has one drain: only ``harness.parallel.run_points``
    (and its ``_pool``) owns a process pool, probes or fills a run cache
    -- a graph comes back with its one ``get(..., graph=)`` -- or calls
    ``execute_point``.  No ``Plan`` build simulates; each driver drains
    at one call site and neither it nor its module-level code simulates
    or calls a ``@study``.  Whole-program only to learn the studies."""

    rule_id = "one-drain"
    description = ("a pool, cache probe or execute_point outside "
                   "run_points; a simulating Plan build; a driver that "
                   "simulates or drains more than once")

    def check_program(self, program) -> Iterator[Finding]:
        owners = {module.source: _owners(module.source.tree)
                  for module in program.by_path.values()}
        studies = {node.name for owner in owners.values() for node in owner
                   if "study" in map(_named,
                                     getattr(node, "decorator_list", ()))}
        for source, owner in owners.items():
            yield from self._check(source, owner, studies)

    def _check(self, source: SourceFile, owner: Dict[ast.AST, ast.AST],
               studies: Set[str]) -> Iterator[Finding]:
        drain = _path(source).endswith("/harness/parallel.py")
        driver = next((name for suffix, name in _DRIVERS.items()
                       if _path(source).endswith(suffix)), None)
        probed: Set[str] = set()
        drains: List[ast.AST] = []
        for node, function in owner.items():
            name = getattr(function, "name", None)
            where = name if drain else None
            func = getattr(node, "func", None)
            if _named(node) in _POOL and where not in ("run_points", "_pool") \
                    or isinstance(node, ast.alias) and not drain \
                    and node.name.split(".")[-1] in _POOL:
                yield self.finding(source, node, "a process pool outside "
                                   "run_points and its _pool")
            elif _callee(node) in ("get", "put", "put_graph") \
                    and _named(getattr(func, "value", None)) == "cache":
                if where != "run_points" or func.attr in probed:
                    yield self.finding(source, node, f"cache.{func.attr}( "
                                       "beside run_points' one probe")
                elif func.attr == "get" and [
                        keyword.arg for keyword in node.keywords] != ["graph"]:
                    yield self.finding(source, node, "a graph comes back "
                                       "with the one get(..., graph=)")
                probed.add(func.attr)
            if isinstance(node, ast.Call) and where != "run_points" and \
                    "execute_point" in map(_named, [func, *node.args]):
                yield self.finding(source, node, "execute_point outside "
                                   "run_points")
            if driver is None:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                    and node.id in ("run_plans", "run_points"):
                if name == driver:
                    drains.append(node)
                if name != driver or len(drains) > 1:
                    yield self.finding(source, node, f"a second drain "
                                       f"call site beside {driver}'s")
            elif name in (driver, None) and _callee(node) in _SIMULATES:
                yield self.finding(source, node, "the driver simulates "
                                   "outside its drain")
            elif _callee(node) in studies:
                yield self.finding(source, node, f"calling the study "
                                   f"{_callee(node)} drains; take its .plan")
        if driver is not None and not drains:
            yield self.finding(source, source.tree, f"{driver} never drains")
        for build in _builds(owner):
            for node in ast.walk(build):
                if _callee(node) in _SIMULATES:
                    yield self.finding(source, node, "a Plan build "
                                       "simulates")
