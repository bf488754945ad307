"""``python -m repro.analysis`` — the simlint command line.

Exit codes: 0 clean, 1 findings, 2 usage errors (an unknown rule id,
a missing path, an unreadable file).  Every run applies the per-file
rules and the whole-program SPMD checks; the one way to accept a
finding is ``# simlint: disable=<rule-ids> - <reason>`` on the flagged
statement.  ``--format json`` emits a machine-readable report and
``--format sarif`` a SARIF 2.1.0 document CI can upload to annotate PR
lines; CI gates on the text form, so findings print in its log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.core import Finding, analyze_paths, default_rules

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: determinism & SPMD-correctness analysis")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories (default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    # Accepted and ignored: the whole-program checks always run.
    parser.add_argument("--deep", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--rules", default=None, metavar="ID,ID",
                        help="comma-separated subset of rule ids to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    return parser


def _render_text(findings: List[Finding], checked: int) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(f"simlint: {len(findings)} finding(s) "
                 f"across {checked} file(s)")
    return "\n".join(lines)


def _render_json(findings: List[Finding], checked: int) -> str:
    return json.dumps({
        "version": 2,
        "files_checked": checked,
        "findings": [finding.to_dict() for finding in findings],
    }, indent=2)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print(f"{rule.rule_id:28s} {rule.severity:8s} "
                  f"{rule.description}")
        return 0

    try:
        only = ([r.strip() for r in args.rules.split(",") if r.strip()]
                if args.rules else None)
        rules = default_rules(only)
    except KeyError as exc:
        print(f"simlint: {exc.args[0]}", file=sys.stderr)
        return 2

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"simlint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        findings, checked = analyze_paths(paths, rules)
    except (OSError, UnicodeError) as exc:
        print(f"simlint: cannot read: {exc}", file=sys.stderr)
        return 2

    if args.format == "sarif":
        from repro.analysis.sarif import render_sarif
        print(render_sarif(findings))
    elif args.format == "json":
        print(_render_json(findings, checked))
    else:
        print(_render_text(findings, checked))
    return 1 if findings else 0
