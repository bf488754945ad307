"""Every name the docs import exists.

``from repro... import a, b`` in ``examples/*.py`` and in the fenced
``python`` blocks of README.md, docs/ARCHITECTURE.md and the decision
records in docs/decisions/ must resolve by import + ``getattr``, and so
must every `` `repro.*` `` name in DESIGN.md's system inventory: a renamed or removed function or module
then fails here, in the change that removes it, instead of in a
reader's terminal.  Imports only — nothing is run.
"""

import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "docs" / "ARCHITECTURE.md",
        *sorted((ROOT / "docs" / "decisions").glob("*.md"))]
FENCE = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
INVENTORY = re.compile(r"^## 2\. System inventory.*?\n(.*?)^## ",
                       re.S | re.M)


def _sources():
    """(label, python source) of every example and fenced block."""
    for path in sorted((ROOT / "examples").glob("*.py")):
        yield path.name, path.read_text()
    for path in DOCS:
        for match in FENCE.finditer(path.read_text()):
            line = path.read_text()[:match.start()].count("\n") + 1
            yield f"{path.name}:{line}", match.group(1)


def test_every_documented_import_resolves():
    # One test, not one per import: ids made of file lines would rename
    # themselves whenever a doc is edited.
    missing, seen = [], set()
    for label, source in _sources():
        seen.add(label.split(":")[0])
        for node in ast.walk(ast.parse(source, filename=label)):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                module = importlib.import_module(node.module)
                missing += [f"{label}: {node.module} has no {alias.name!r}"
                            for alias in node.names
                            if not hasattr(module, alias.name)]
    assert not missing, "\n".join(missing)
    assert {"README.md", "quickstart.py"} <= seen


def _resolves(name):
    """Whether dotted ``name`` is a module, or an attribute path under
    the longest prefix of it that imports."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


def test_every_name_in_the_design_inventory_resolves():
    table = INVENTORY.search((ROOT / "DESIGN.md").read_text()).group(1)
    names = set(re.findall(r"`(repro(?:\.\w+)+)`", table))
    assert "repro.sim" in names
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"DESIGN.md section 2 names {missing}"
