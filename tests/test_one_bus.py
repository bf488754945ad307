"""Structural gate: the layers know hooks, not observers.

``AmLayer``, ``Nic``, ``Wire`` and everything in ``gas/`` and ``coll/``
fire the named instants of ``repro.instruments.probes.HOOKS``;
``Cluster.run`` is the only code below the harness that knows which
observers exist.  Walks the source with ``ast`` (names, so docstrings
may say what they like), like ``test_one_drain.py``, and CI runs it
beside simlint as well as in the tier-1 suite.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
LAYERS = ("am", "network", "gas", "coll")
OBSERVERS = {"tracer", "sanitizer", "recorder"}


def _trees(*packages):
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield (path.relative_to(SRC).as_posix(),
                   ast.parse(path.read_text(), filename=str(path)))


def _named(node):
    """The identifier ``node`` introduces or refers to, if it is one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg
    return None


def _parameters(path, class_name):
    """Parameter names of ``class_name.__init__`` in ``SRC / path``."""
    tree = ast.parse((SRC / path).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            init = next(item for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "__init__")
            return {arg.arg for arg in init.args.args + init.args.kwonlyargs}
    raise AssertionError(f"no class {class_name} in {path}")


def test_no_layer_names_an_observer():
    seen = 0
    for path, tree in _trees(*LAYERS):
        for node in ast.walk(tree):
            seen += 1
            assert _named(node) not in OBSERVERS, \
                (path, node.lineno, _named(node))
    assert seen > 10_000, "scan found next to nothing: the gate is blind"


def test_layer_constructors_take_probes_not_stats():
    for path, class_name in (("am/layer.py", "AmLayer"),
                             ("network/nic.py", "Nic"),
                             ("network/wire.py", "Wire")):
        parameters = _parameters(path, class_name)
        assert "probes" in parameters, class_name
        assert "stats" not in parameters, class_name
    # Proc keeps the run's result record and takes its hooks from its am.
    parameters = _parameters("gas/runtime.py", "Proc")
    assert "stats" in parameters and "probes" not in parameters


def test_no_layer_calls_a_hook_on_the_stats_object():
    for path, tree in _trees(*LAYERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr.startswith("on_"):
                assert _named(node.func.value) != "stats", \
                    (path, node.lineno)


def test_only_cluster_run_tells_the_observers_apart():
    tree = ast.parse((SRC / "cluster" / "machine.py").read_text())
    inside_run = set()
    fields = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "Cluster":
            run = next(item for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and item.name == "run")
            inside_run = set(ast.walk(run))
        if isinstance(node, ast.ClassDef) and node.name == "RunResult":
            # ``RunResult.sanitizer`` is the run's report, a result
            # field, not the observer.
            fields = {item.target for item in node.body
                      if isinstance(item, ast.AnnAssign)}
    assert inside_run and fields
    named = [node for node in ast.walk(tree) if _named(node) in OBSERVERS]
    assert {_named(node) for node in named} == OBSERVERS
    outside = [(node.lineno, _named(node)) for node in named
               if node not in inside_run and node not in fields]
    assert outside == [], outside
