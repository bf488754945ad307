"""Structural gate: the harness has one drain.

``repro.harness.parallel.run_points`` is the only code in ``src/repro``
that owns a process pool, probes or fills a run cache (a recorded graph
is read by the same probe), or calls ``execute_point``, and each driver
that regenerates artifacts drains what it planned at one call site:
neither it nor any ``Plan`` build simulates on its own.  Walks the
source with ``ast`` (names, so docstrings may say what they like); needs
nothing but the standard library, and CI runs it beside simlint as well
as in the tier-1 suite.
"""

import ast
import functools
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DRAIN = "harness/parallel.py"

#: The drivers' artifact modes: each plans everything selected and then
#: drains it here, once.
DRIVERS = {ROOT / "scripts" / "generate_experiments.py": "main",
           SRC / "harness" / "__main__.py": "main",
           SRC / "cost" / "cli.py": "_cmd_report"}

#: What simulates when called, outside the drain: ``record_run`` (a
#: one-task drain of its own) and ``Cluster.run``.
SIMULATES = {"record_run", "run"}

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
                # The drain module imports the names it may use only
                # inside its two functions; nobody else imports them.
                if relative != DRAIN:
                    pools.append(where)
            elif isinstance(node, ast.Attribute) and node.attr in POOL_NAMES:
                pools.append(where)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) \
                        and func.attr in ("get", "put", "put_graph") \
                        and _is_cache(func.value):
                    probes.append(where)
                if any(isinstance(arg, ast.Name)
                       and arg.id == "execute_point"
                       for arg in [func, *node.args]):
                    executes.append(where)
    return pools, probes, executes


def test_process_pools_live_only_in_run_points_and_its_pool():
    """By function, not by module: a second pool owner once lived in the
    drain module itself."""
    pools, _probes, _executes = _scan()
    assert {(path, function) for path, function, _line in pools} \
        == {(DRAIN, "run_points"), (DRAIN, "_pool")}, pools


def test_only_run_points_probes_or_fills_a_run_cache():
    _pools, probes, _executes = _scan()
    assert len(probes) == 3, probes  # one get, one put, one put_graph
    assert {(path, function) for path, function, _line in probes} \
        == {(DRAIN, "run_points")}, probes


def test_a_recorded_graph_is_read_by_the_one_cache_probe():
    """The graph comes back with the probe (``get(..., graph=...)``),
    so a recording's cache hit is counted like any other."""
    tree = ast.parse((SRC / DRAIN).read_text())
    gets = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and _is_cache(node.func.value)]
    assert [[keyword.arg for keyword in node.keywords]
            for node in gets] == [["graph"]]


def test_only_run_points_calls_execute_point():
    _pools, _probes, executes = _scan()
    assert len(executes) == 2, executes  # the serial call, the submit
    assert {(path, function) for path, function, _line in executes} \
        == {(DRAIN, "run_points")}, executes


def _studies():
    """Every name defined under ``@study``: calling one drains."""
    return {node.name
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id == "study"
                    for d in node.decorator_list)}


def _simulating_calls(nodes):
    """``(call, line)`` of every call among ``nodes`` that simulates."""
    return [(ast.unparse(node.func), node.lineno) for node in nodes
            if isinstance(node, ast.Call)
            and getattr(node.func, "id",
                        getattr(node.func, "attr", None)) in SIMULATES]


def test_no_driver_simulates_outside_the_drain():
    """The driver function and the module-level code it reads (the
    artifact table) plan; only their one drain call runs anything."""
    for path, function in DRIVERS.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _functions_by_node(tree)
        nodes = [node for node in ast.walk(tree)
                 if owner.get(node) in (function, None)]
        assert not _simulating_calls(nodes), path.name


def _builds(tree):
    """The build callables a module hands to ``Plan(...)`` and
    ``.then(...)``: lambdas, and every function of the passed name."""
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        args = node.args[1:2] if name == "Plan" else \
            node.args[:1] if name == "then" else []
        for arg in args:
            if isinstance(arg, ast.Lambda):
                yield arg
            elif isinstance(arg, ast.Name):
                yield from defs.get(arg.id, [])


def test_no_plan_build_simulates():
    """``Plan.build`` is documented pure: a build that recorded or ran
    a simulation would be a second, serial, uncached path."""
    paths = sorted(SRC.rglob("*.py")) + [ROOT / "scripts" /
                                          "generate_experiments.py"]
    found = 0
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for build in _builds(tree):
            found += 1
            calls = _simulating_calls(ast.walk(build))
            assert not calls, (path.name, build.lineno, calls)
    assert found > 20  # the scan sees the studies' builds


def test_each_driver_drains_what_it_planned_at_one_call_site():
    studies = _studies()
    assert {"run_sweep", "sensitivity_figure", "measure_algorithms"} <= studies
    for path, function in DRIVERS.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = _functions_by_node(tree)
        drains = [(owner.get(node), node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and node.id in ("run_plans", "run_points")
                  and isinstance(node.ctx, ast.Load)]
        assert [name for name, _line in drains] == [function], \
            (path.name, drains)
        # Calling a study drains too: a driver only takes their .plan.
        eager = [(ast.unparse(node.func), node.lineno)
                 for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id",
                             getattr(node.func, "attr", None)) in studies]
        assert not eager, f"{path.name} runs a study by itself: {eager}"
