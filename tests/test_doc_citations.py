"""Every citation of an ARCHITECTURE section or a decision record names
one that exists.

When a section is renumbered or a record moves, a docstring in ``src/``
or a line of the README that still cites the old place fails here, in
the change that moves it.  Three forms are checked:

* ``ARCHITECTURE.md §N`` / ``ARCHITECTURE section N.M`` (and a list
  after one, ``§N, §M``), plus every bare ``§N`` or ``section N`` inside
  ARCHITECTURE.md itself, against its numbered headings;
* ``decision NNNN`` / ``decisions NNNN and NNNN``;
* a ``decisions/NNNN-name.md`` path, against the files in
  ``docs/decisions/``.

Scanned: ``src/``, ``scripts/``, ``tests/``, ``examples/``, README,
DESIGN, ROADMAP, ``docs/`` and ``.claude/``.  CHANGES.md is a log: each
line cites the numbering of its day.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARCHITECTURE = ROOT / "docs" / "ARCHITECTURE.md"
DECISIONS = ROOT / "docs" / "decisions"

NUMBER = r"\d+(?:\.\d+)?"
#: ``ARCHITECTURE`` then a section: the ``.md``, a closing backtick or
#: link, a comma, or a wrapped comment's ``#`` may stand between.
ARCH_CITE = re.compile(
    rf"ARCHITECTURE(?:\.md)?[`\])]*[\s#,]*(?:§ ?|section\s+)({NUMBER})"
    rf"((?:(?:,\s*|\s+and\s+)§ ?{NUMBER})*)")
BARE = re.compile(rf"(?:§ ?|\bsection\s+)({NUMBER})")
DECISION = re.compile(r"\b[Dd]ecisions?\s+(?:records?\s+)?(\d{4}[^.;:]*)")
RECORD = re.compile(r"\b0\d{3}\b")
PATH = re.compile(r"decisions/(\d{4}-[\w.-]+?\.md)")


def _scanned():
    for folder, patterns in (("src", ("*.py",)), ("scripts", ("*",)),
                             ("tests", ("*.py", "*.json", "*.md")),
                             ("examples", ("*",)), ("docs", ("*.md",)),
                             (".claude", ("*.md",))):
        for pattern in patterns:
            yield from sorted((ROOT / folder).rglob(pattern))
    for name in ("README.md", "DESIGN.md", "ROADMAP.md"):
        yield ROOT / name


def _sections():
    return {match.group(1) for match in re.finditer(
        rf"^#{{2,3}} ({NUMBER})\.? ", ARCHITECTURE.read_text(), re.M)}


def _citations(path, text):
    """(section, decision, file) citations in one file's text, each
    with its line number."""
    def line(match):
        return text.count("\n", 0, match.start()) + 1

    for match in ARCH_CITE.finditer(text):
        for number in [match.group(1)] + re.findall(NUMBER, match.group(2)):
            yield "section", number, line(match)
    if path == ARCHITECTURE:
        for match in BARE.finditer(text):
            yield "section", match.group(1), line(match)
    for match in DECISION.finditer(text):
        for number in RECORD.findall(match.group(1)):
            yield "decision", number, line(match)
    for match in PATH.finditer(text):
        yield "file", match.group(1), line(match)


def test_every_section_and_decision_citation_resolves():
    sections = _sections()
    records = {path.name for path in DECISIONS.glob("*.md")}
    numbers = {name[:4] for name in records}
    exists = {"section": sections.__contains__,
              "decision": numbers.__contains__,
              "file": records.__contains__}
    seen, stale = 0, []
    for path in _scanned():
        if not path.is_file():
            continue
        text = path.read_text(errors="replace")
        for kind, cited, line in _citations(path, text):
            seen += 1
            if not exists[kind](cited):
                stale.append(f"{path.relative_to(ROOT)}:{line}: "
                             f"{kind} {cited}")
    assert not stale, "stale citations:\n" + "\n".join(stale)
    # The patterns still match what the docs write.
    assert seen > 100 and {"7", "13"} <= sections


def test_the_index_lists_every_decision_record():
    index = re.search(r"^## 13\. .*?(?=^## )", ARCHITECTURE.read_text(),
                      re.S | re.M).group(0)
    for path in DECISIONS.glob("*.md"):
        assert f"(decisions/{path.name})" in index, path.name
        assert path.read_text().startswith(f"# {path.name[:4]} · ")
