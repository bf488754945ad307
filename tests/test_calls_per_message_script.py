"""``scripts/calls_per_message.py`` stays runnable: it is the counter
behind ARCHITECTURE section 7's table, and the last one was lost."""

import importlib.util
import re
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parent.parent
          / "scripts" / "calls_per_message.py")


def test_every_call_lands_in_exactly_one_row():
    spec = importlib.util.spec_from_file_location("calls_per_message",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = module.count(nodes=4, scale=0.02)
    rows = {name: float(value) for name, value in re.findall(
        r"^\| ([^|*]+?) \| ([\d.]+) \|$", out, re.M)}
    total = float(re.search(r"\*\*total\*\* \| \*\*([\d.]+)\*\*",
                            out).group(1))
    assert set(rows) == set(module.ROWS)
    assert all(value > 0 for value in rows.values())
    # Two decimals a row; the script itself asserts the exact sum.
    assert abs(sum(rows.values()) - total) < 0.05
