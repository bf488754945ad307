"""Dial-accounting rule: every charge must flow through the knobs.

The whole methodology turns four dials — o, g, L, G — through
:class:`~repro.am.tuning.TuningKnobs`, and both the sweep harness and
the simcost predictor assume those are the *only* places simulated time
is charged in the messaging layers.  A hard-coded ``yield 3.0``,
``call_in(3.0, ...)``, ``timeout(3.0)`` or ``succeed(..., delay=0.5)``
inside ``am/`` or ``network/`` is invisible
to every one of them: sweeps can't turn it, the predictor's symbolic
edge costs don't include it, and predicted-vs-simulated error quietly
grows.  This rule flags any timeout/delay charge whose duration is a
compile-time numeric constant instead of a value derived from the
machine parameters or knobs.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.core import Finding, Rule, SourceFile, register_rule

__all__ = ["UntrackedDialCostRule"]


def _constant_value(node: ast.AST) -> Optional[float]:
    """The numeric value of a compile-time constant expression.

    Covers bare literals plus arithmetic over literals (``2 * 1.5``,
    ``-(3)``); anything touching a name, attribute, or call is not a
    constant and returns None.
    """
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or \
                not isinstance(node.value, (int, float)):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and \
            isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = _constant_value(node.operand)
        if inner is None:
            return None
        return -inner if isinstance(node.op, ast.USub) else inner
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        left = _constant_value(node.left)
        right = _constant_value(node.right)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            return left / right
        except ZeroDivisionError:
            return None
    return None


@register_rule
class UntrackedDialCostRule(Rule):
    """Constant-duration charges in the messaging layers bypass knobs.

    Scoped to ``am/`` and ``network/``: those layers own the o/g/L/G
    accounting, so any stall or delivery delay there must be a function
    of the machine parameters / TuningKnobs, never a literal.  A zero
    constant is allowed (``yield 0.0`` is the idiomatic yield point).
    """

    rule_id = "untracked-dial-cost"
    description = ("constant-duration time charge in am/ or network/; "
                   "derive it from LogGPParams/TuningKnobs so sweeps "
                   "and simcost can see it")

    def applies_to(self, source: SourceFile) -> bool:
        parts = source.path.replace("\\", "/").split("/")
        return "am" in parts or "network" in parts

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Yield) and node.value is not None:
                # A process that yields a number sleeps for it.
                value = _constant_value(node.value)
                if value is not None and value != 0.0:
                    yield self.finding(
                        source, node,
                        f"yield {value:g} sleeps a hard-coded duration "
                        "the dials cannot turn")
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) \
                else callee.id if isinstance(callee, ast.Name) else None
            if name in ("timeout", "call_in") and node.args:
                value = _constant_value(node.args[0])
                if value is not None and value != 0.0:
                    yield self.finding(
                        source, node,
                        f"{name}({value:g}) charges a hard-coded "
                        "duration the dials cannot turn")
            elif name == "succeed":
                for keyword in node.keywords:
                    if keyword.arg != "delay":
                        continue
                    value = _constant_value(keyword.value)
                    if value is not None and value != 0.0:
                        yield self.finding(
                            source, node,
                            f"succeed(delay={value:g}) schedules a "
                            "hard-coded delivery delay outside the "
                            "knob accounting")
