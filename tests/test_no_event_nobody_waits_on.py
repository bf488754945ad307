"""Structural gate: an occurrence nobody waits on is not an ``Event``.

Outside the kernel, a callback nobody waits on goes through
``Simulator.call_in`` and a process that only sleeps yields the bare
delay; neither builds a ``Timeout``.  So no code under ``src/repro``
outside ``sim/`` calls ``.timeout(`` or touches ``.callbacks`` -- every
such site used to be a ``Timeout`` yielded on the spot or given exactly
one callback and dropped.  ``Simulator.timeout`` stays the public
waitable for tests, examples and ``any_of([reply, sim.timeout(t)])``.
A wait with one known waiter is not an ``Event`` either: it is a
``Park``, so nothing outside ``sim/`` calls ``.event(`` -- the one site
there was built the AM wakeup afresh for every park.
``Simulator.now`` is a plain attribute only the event loop assigns, so
nothing outside ``sim/`` stores to an attribute named ``now``.
Walks the source with ``ast``, like ``test_one_bus.py``, and CI runs it
beside simlint as well as in the tier-1 suite.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_nothing_outside_the_kernel_builds_a_timeout_or_reads_callbacks():
    seen = 0
    for path in sorted(SRC.rglob("*.py")):
        if path.relative_to(SRC).parts[0] == "sim":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            seen += 1
            where = (path.relative_to(SRC).as_posix(),
                     getattr(node, "lineno", None))
            if isinstance(node, ast.Attribute):
                assert node.attr != "callbacks", where
                assert node.attr != "now" \
                    or isinstance(node.ctx, ast.Load), where
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in ("timeout", "event"), where
    assert seen > 50_000, "scan found next to nothing: the gate is blind"
