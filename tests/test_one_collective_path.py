"""Structural gate: one collective layer.

Every collective is a schedule of the ``repro.coll`` registry.  Its
messages go to the one deposit handler ``COLL_HANDLER`` and land in
``Proc.collective_box``; the only way in is a ``Proc`` method, which
asks ``coll.algorithms.pick`` for the schedule.  No second barrier beside
the registry, no second spelling of a collective.  Walks the source
with ``ast`` (names, so docstrings may say what they like), like
``test_one_bus.py``, and CI runs it beside simlint as well as in the
tier-1 suite.
"""

import ast
from pathlib import Path

from repro.am.layer import HandlerTable
from repro.coll.algorithms import PRIMITIVES
from repro.coll.core import COLL_HANDLER
from repro.gas.runtime import register_gas_handlers

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
RUNTIME = "gas/runtime.py"

#: What the GAS layer itself serves: reads, writes, bulk moves, locks.
GAS_HANDLERS = {"_gas_read", "_gas_write", "_gas_bulk_get", "_gas_bulk_put",
                "_gas_lock_try", "_gas_lock_release"}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield (path.relative_to(SRC).as_posix(),
               ast.parse(path.read_text(), filename=str(path)))


def _proc_methods():
    tree = ast.parse((SRC / RUNTIME).read_text())
    proc = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "Proc")
    return {item.name: item for item in proc.body
            if isinstance(item, ast.FunctionDef)}


def _at(path, node):
    return path, node.lineno, node.col_offset


def _picks(tree):
    return [call for call in ast.walk(tree)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", getattr(call.func, "attr", None))
            == "pick"]


def test_only_coll_touches_the_collective_box():
    # Proc.__init__ creates the box empty; it is coll's from then on.
    creation = [node.target for node in ast.walk(_proc_methods()["__init__"])
                if isinstance(node, ast.AnnAssign)
                and isinstance(node.value, ast.Dict) and not node.value.keys
                and getattr(node.target, "attr", None) == "collective_box"]
    assert len(creation) == 1
    allowed = _at(RUNTIME, creation[0])
    outside, seen = [], 0
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and node.attr == "collective_box":
                seen += 1
                if not path.startswith("coll/") \
                        and _at(path, node) != allowed:
                    outside.append((path, node.lineno))
    assert outside == [], outside
    assert seen >= 3, "scan found next to nothing: the gate is blind"


def test_gas_registers_no_collective_handler_besides_coll_handler():
    class Recording(HandlerTable):
        def __init__(self):
            super().__init__()
            self.names = []

        def register(self, name, handler):
            super().register(name, handler)
            self.names.append(name)

    table = Recording()
    register_gas_handlers(table)
    assert set(table.names) == GAS_HANDLERS | {COLL_HANDLER}, table.names


def test_each_proc_collective_picks_and_nothing_else_does():
    methods = _proc_methods()
    inside = set()
    for primitive in PRIMITIVES:
        picks = _picks(methods[primitive])
        assert len(picks) == 1, (primitive, len(picks))
        inside.add(_at(RUNTIME, picks[0]))
    elsewhere = [(path, call.lineno) for path, tree in _trees()
                 for call in _picks(tree)
                 if _at(path, call) not in inside]
    assert elsewhere == [], elsewhere
