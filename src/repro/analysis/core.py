"""The simlint engine: sources, findings, rules, and the driver.

The methodology of the paper only holds if every run is bit-deterministic
and every SPMD program obeys the simulator's cooperative-scheduling
contract.  ``repro.analysis`` enforces both mechanically: each
:class:`Rule` walks one parsed module, each :class:`ProgramRule` walks
the call graph of all of them, and both emit :class:`Finding` objects;
the driver applies per-line ``# simlint: disable=rule-id`` suppressions
and an optional committed baseline of grandfathered findings.

Layout
------
* this module -- :class:`SourceFile`, :class:`Finding`, :class:`Rule`,
  the one rule registry, and :func:`analyze_sources` (with its
  :func:`analyze_file` / :func:`analyze_paths` front ends).
* :mod:`repro.analysis.baseline` -- the grandfathered-findings file.
* :mod:`repro.analysis.rules` -- the rule packs (determinism, dial
  cost, hygiene, architecture).
* :mod:`repro.analysis.flow` -- the call graph and the whole-program
  SPMD checks.
* :mod:`repro.analysis.cli` -- ``python -m repro.analysis``.
"""

from __future__ import annotations

import abc
import ast
import dataclasses
import hashlib
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding", "Frame", "SourceFile", "Rule", "ProgramRule",
    "register_rule", "all_rules", "default_rules", "analyze_sources",
    "analyze_source", "analyze_file", "analyze_paths",
    "dotted_name", "walk_scope", "load_source",
    "parse_cache_stats", "clear_parse_cache", "PARSE_ERROR_RULE",
]

#: Pseudo-rule id attached to findings for unparseable files.
PARSE_ERROR_RULE = "parse-error"

#: ``# simlint: disable=a,b`` / ``# simlint: disable-next-line=a`` /
#: ``# simlint: disable-file=a`` (omitting ``=...`` disables every
#: rule); free text after the rule list is a justification.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(disable(?:-next-line|-file)?)"
    r"(?:=([A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*))?")

#: Wildcard marker: a suppression with no rule list silences all rules.
_ALL = "all"


@dataclasses.dataclass(frozen=True)
class Frame:
    """One hop of an interprocedural call chain."""

    path: str
    line: int
    function: str

    def render(self) -> str:
        return f'  File "{self.path}", line {self.line}, in {self.function}'

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line,
                "function": self.function}


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str
    #: Last physical line of the offending statement (suppression scope).
    end_line: int = 0
    #: Interprocedural witness: the call chain from the reported site
    #: down to the intrinsic effect, rendered like a traceback.
    chain: Tuple[Frame, ...] = ()

    def render(self) -> str:
        head = (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity} [{self.rule}] {self.message}")
        if not self.chain:
            return head
        return "\n".join([head] + [frame.render() for frame in self.chain])

    def to_dict(self) -> dict:
        data = {
            "path": self.path, "line": self.line, "col": self.col,
            "rule": self.rule, "severity": self.severity,
            "message": self.message,
        }
        if self.chain:
            data["chain"] = [frame.to_dict() for frame in self.chain]
        return data

    def fingerprint(self, source: Optional["SourceFile"] = None) -> str:
        """Content-addressed identity for the baseline: path + rule +
        the offending line's text, so findings survive line shifts."""
        text = ""
        if source is not None and 1 <= self.line <= len(source.lines):
            text = source.lines[self.line - 1].strip()
        raw = f"{self.path}|{self.rule}|{text}"
        return hashlib.sha256(raw.encode()).hexdigest()[:16]


class SourceFile:
    """A parsed module plus its simlint suppression comments."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        #: line number -> rule ids disabled on that physical line.
        self.line_suppressions: Dict[int, Set[str]] = {}
        #: line number -> rule ids disabled on the *next* statement line.
        self.next_line_suppressions: Dict[int, Set[str]] = {}
        #: rule ids disabled for the whole file.
        self.file_suppressions: Set[str] = set()
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as exc:
            self.parse_error = exc
            return
        self._scan_suppressions()

    @classmethod
    def load(cls, path: Path) -> "SourceFile":
        return cls(str(path), path.read_text(encoding="utf-8"))

    def _scan_suppressions(self) -> None:
        reader = io.StringIO(self.text).readline
        try:
            tokens = list(tokenize.generate_tokens(reader))
        except (tokenize.TokenError, IndentationError):
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            kind = match.group(1)
            listed = match.group(2)
            rules = ({_ALL} if listed is None else
                     {r.strip() for r in listed.split(",") if r.strip()})
            line = tok.start[0]
            if kind == "disable-file":
                self.file_suppressions |= rules
            elif kind == "disable-next-line":
                self.next_line_suppressions.setdefault(
                    line, set()).update(rules)
            else:
                self.line_suppressions.setdefault(line, set()).update(rules)

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a suppression comment covers ``finding``."""
        rule = finding.rule
        if _ALL in self.file_suppressions or rule in self.file_suppressions:
            return True
        last = max(finding.end_line, finding.line)
        for line in range(finding.line, last + 1):
            rules = self.line_suppressions.get(line)
            if rules and (_ALL in rules or rule in rules):
                return True
        rules = self.next_line_suppressions.get(finding.line - 1)
        return bool(rules and (_ALL in rules or rule in rules))


class Rule(abc.ABC):
    """One statically checkable invariant.

    Subclasses set ``rule_id``, ``severity``, ``description`` and
    implement :meth:`check`; :func:`register_rule` adds them to the
    registry that :func:`default_rules` instantiates.
    """

    rule_id: str = ""
    severity: str = "error"
    description: str = ""
    #: Path components on which this rule does not apply (e.g. the
    #: harness may read wall clocks; the simulation may not).
    exempt_path_parts: Tuple[str, ...] = ()

    @abc.abstractmethod
    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield every violation found in ``source``."""

    def applies_to(self, source: SourceFile) -> bool:
        parts = Path(source.path).parts
        return not any(part in parts for part in self.exempt_path_parts)

    def finding(self, source: SourceFile, node: ast.AST, message: str,
                chain: Tuple[Frame, ...] = ()) -> Finding:
        return Finding(
            path=source.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
            end_line=getattr(node, "end_lineno", None)
            or getattr(node, "lineno", 1),
            chain=chain,
        )


class ProgramRule(Rule):
    """An invariant checked over every analyzed module at once, on the
    call graph and effect summaries of :mod:`repro.analysis.flow`."""

    def check(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())   # sees the program, not one file

    @abc.abstractmethod
    def check_program(self, program) -> Iterator[Finding]:
        """Yield every violation found in ``program`` (a
        :class:`repro.analysis.flow.ProgramIndex`)."""


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id!r}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """The registry (importing the shipped packs as a side effect)."""
    import repro.analysis.flow  # noqa: F401 - registers the SPMD checks
    import repro.analysis.rules  # noqa: F401 - registers the packs
    return dict(_REGISTRY)


def default_rules(only: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instances of every registered rule (or the ``only`` subset)."""
    registry = all_rules()
    if only is None:
        wanted = sorted(registry)
    else:
        wanted = list(only)
        unknown = [rule for rule in wanted if rule not in registry]
        if unknown:
            raise KeyError(f"unknown rule ids: {', '.join(unknown)}")
    return [registry[rule_id]() for rule_id in wanted]


# -- AST helpers shared by the rule packs -----------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                   ast.ClassDef)


def walk_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, _SCOPE_BARRIERS):
            stack.extend(ast.iter_child_nodes(child))


# -- parse cache ------------------------------------------------------------
#
# Parsing + tokenizing dominates lint time, and callers (the test suite
# above all) analyze the same tree many times.  The cache keys on
# (display path, content hash) so they share one AST/tokenize pass per
# file content, and stale entries die naturally when the file changes.

_SOURCE_CACHE: Dict[Tuple[str, str], "SourceFile"] = {}
_SOURCE_CACHE_MAX = 2048
_CACHE_STATS = {"hits": 0, "misses": 0}


def load_source(path: Path, display: Optional[str] = None) -> SourceFile:
    """A (possibly cached) parsed ``SourceFile`` for an on-disk file."""
    name = display if display is not None else str(path)
    text = path.read_text(encoding="utf-8")
    key = (name, hashlib.sha256(text.encode()).hexdigest())
    cached = _SOURCE_CACHE.get(key)
    if cached is not None:
        _CACHE_STATS["hits"] += 1
        return cached
    _CACHE_STATS["misses"] += 1
    source = SourceFile(name, text)
    if len(_SOURCE_CACHE) >= _SOURCE_CACHE_MAX:
        _SOURCE_CACHE.clear()
    _SOURCE_CACHE[key] = source
    return source


def parse_cache_stats() -> Dict[str, int]:
    """``{"hits": ..., "misses": ...}`` counters (for the perf smoke)."""
    return dict(_CACHE_STATS)


def clear_parse_cache() -> None:
    _SOURCE_CACHE.clear()
    _CACHE_STATS["hits"] = _CACHE_STATS["misses"] = 0


# -- driver -----------------------------------------------------------------

def analyze_sources(sources: Dict[str, SourceFile],
                    rules: Sequence[Rule]) -> List[Finding]:
    """All unsuppressed findings across ``sources`` (keyed by path):
    each per-file rule on each file, each :class:`ProgramRule` once
    over the call graph of them all."""
    findings: Set[Finding] = set()
    for source in sources.values():
        if source.parse_error is not None:
            exc = source.parse_error
            findings.add(Finding(source.path, exc.lineno or 1, 1,
                                 PARSE_ERROR_RULE, "error",
                                 f"syntax error: {exc.msg}"))
            continue
        for rule in rules:
            if rule.applies_to(source):
                findings.update(rule.check(source))
    program_rules = [r for r in rules if isinstance(r, ProgramRule)]
    if program_rules:
        from repro.analysis.flow import build_program
        program = build_program(sources)
        for rule in program_rules:
            findings.update(rule.check_program(program))
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.col,
                                              f.rule, f.message))
    return [f for f in ordered if not sources[f.path].is_suppressed(f)]


def analyze_source(source: SourceFile,
                   rules: Sequence[Rule]) -> List[Finding]:
    """All unsuppressed findings for one in-memory source, analyzed as
    a program of its own."""
    return analyze_sources({source.path: source}, rules)


def analyze_file(path: Path, rules: Sequence[Rule],
                 root: Optional[Path] = None) -> List[Finding]:
    """All unsuppressed findings for one file, sorted by location."""
    display = str(path if root is None else path.relative_to(root))
    return analyze_source(load_source(path, display), rules)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, in sorted order."""
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def analyze_paths(paths: Iterable[Path], rules: Sequence[Rule],
                  root: Optional[Path] = None
                  ) -> Tuple[List[Finding], int]:
    """``(findings, files_checked)`` across files and directories,
    analyzed as one program."""
    sources: Dict[str, SourceFile] = {}
    for path in iter_python_files(paths):
        display = str(path if root is None else path.relative_to(root))
        sources[display] = load_source(path, display)
    return analyze_sources(sources, rules), len(sources)
