"""Structural gate: the harness has one drain.

``repro.harness.parallel.run_points`` is the only code in ``src/repro``
that owns a process pool, probes or fills a run cache, or calls
``execute_point``.  Walks the source with ``ast`` (names, so docstrings
may say what they like); needs nothing but the standard library, and CI
runs it beside simlint as well as in the tier-1 suite.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
DRAIN = "harness/parallel.py"

#: Pool machinery: a second pool loop would have to name one of these.
POOL_NAMES = {"ProcessPoolExecutor", "as_completed", "BrokenProcessPool"}


def _functions_by_node(tree):
    """node -> name of the outermost function that contains it."""
    owner = {}
    for top in ast.walk(tree):
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(top):
                owner.setdefault(node, top.name)
    return owner


def _is_cache(node):
    return (isinstance(node, ast.Name) and node.id == "cache") or \
        (isinstance(node, ast.Attribute) and node.attr == "cache")


@functools.lru_cache(maxsize=None)
def _scan():
    """(pool-name uses, cache probes, execute_point calls), each a list
    of ``(relative path, enclosing function, line)``."""
    pools, probes, executes = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _functions_by_node(tree)
        for node in ast.walk(tree):
            where = (relative, owner.get(node), getattr(node, "lineno", 0))
            if isinstance(node, ast.Name) and node.id in POOL_NAMES:
                pools.append(where)
            elif isinstance(node, ast.alias) \
                    and node.name.split(".")[-1] in POOL_NAMES:
                pools.append(where)
            elif isinstance(node, ast.Attribute) and node.attr in POOL_NAMES:
                pools.append(where)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in ("get", "put") \
                        and _is_cache(func.value):
                    probes.append(where)
                if any(isinstance(arg, ast.Name)
                       and arg.id == "execute_point"
                       for arg in [func, *node.args]):
                    executes.append(where)
    return pools, probes, executes


def test_process_pools_live_only_in_the_drain_module():
    pools, _probes, _executes = _scan()
    assert pools, "scan found no pool at all: the gate is blind"
    assert {path for path, _function, _line in pools} == {DRAIN}, pools


def test_only_run_points_probes_or_fills_a_run_cache():
    _pools, probes, _executes = _scan()
    assert len(probes) == 2, probes  # one get, one put
    assert {(path, function) for path, function, _line in probes} \
        == {(DRAIN, "run_points")}, probes


def test_only_run_points_calls_execute_point():
    _pools, _probes, executes = _scan()
    assert len(executes) == 2, executes  # the serial call, the submit
    assert {(path, function) for path, function, _line in executes} \
        == {(DRAIN, "run_points")}, executes
