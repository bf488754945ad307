"""``scripts/calls_per_message.py`` stays runnable: it is the counter
behind ARCHITECTURE section 7's table, and the last one was lost."""

import importlib.util
import re
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent
          / "scripts" / "calls_per_message.py")


def _script():
    spec = importlib.util.spec_from_file_location("calls_per_message",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows_sum_to_the_total(out):
    rows = {name: float(value) for name, value in re.findall(
        r"^\| ([^|*]+?) \| ([\d.]+) \|$", out, re.M)}
    total = float(re.search(r"\*\*total\*\* \| \*\*([\d.]+)\*\*",
                            out).group(1))
    assert all(value > 0 for value in rows.values())
    # Two decimals a row; the script itself asserts the exact sum.
    assert abs(sum(rows.values()) - total) < 0.05
    return set(rows)


def test_every_call_lands_in_exactly_one_row():
    module = _script()
    out = module.count(nodes=4, scale=0.02)
    assert _rows_sum_to_the_total(out) == set(module.ROWS)
    assert "calls per request" not in out


def test_the_serve_count_adds_a_serve_row():
    module = _script()
    out = module.count(nodes=4, requests=40)
    assert _rows_sum_to_the_total(out) == set(module.ROWS) | {module.SERVE}
    assert re.search(r"^[\d.]+ calls per request \(serve row: [\d.]+\)$",
                     out, re.M)
