"""``python -m repro.analysis`` — the simlint command line.

Exit codes: 0 clean (or every finding baselined), 1 findings, 2 usage
errors.  Every run applies the per-file rules and the whole-program
SPMD checks, gated by one baseline.  ``--format json`` emits a
machine-readable report and ``--format sarif`` a SARIF 2.1.0 document
CI can upload to annotate PR lines; CI runs the text form and fails on
any finding not in the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.analysis.core import (Finding, SourceFile, analyze_sources,
                                 default_rules, iter_python_files,
                                 load_source)

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
    parser.add_argument("--baseline", type=Path, default=None,
                        metavar="FILE",
                        help="baseline of grandfathered findings "
                        f"(default: ./{DEFAULT_BASELINE_NAME} if present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline "
                        "file and exit 0")
    parser.add_argument("--rules", default=None, metavar="ID,ID",
                        help="comma-separated subset of rule ids to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    return parser


def _resolve_baseline_path(args: argparse.Namespace) -> Optional[Path]:
    if args.baseline is not None:
        return args.baseline
    default = Path(DEFAULT_BASELINE_NAME)
    if args.write_baseline or default.is_file():
        return default
    return None


def _render_text(new: List[Finding], baselined: List[Finding],
                 checked: int) -> str:
    lines = [finding.render() for finding in new]
    lines.append(
        f"simlint: {len(new)} finding(s)"
        + (f" ({len(baselined)} baselined)" if baselined else "")
        + f" across {checked} file(s)")
    return "\n".join(lines)


def _render_json(new: List[Finding], baselined: List[Finding],
                 checked: int) -> str:
    return json.dumps({
        "version": 1,
        "files_checked": checked,
        "findings": [finding.to_dict() for finding in new],
        "baselined": [finding.to_dict() for finding in baselined],
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

    sources: Dict[str, SourceFile] = {}
    for path in iter_python_files(paths):
        try:
            source = load_source(path)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"simlint: cannot read {path}: {exc}",
                  file=sys.stderr)
            return 2
        sources[source.path] = source
    findings = analyze_sources(sources, rules)

    baseline_path = _resolve_baseline_path(args)
    if args.write_baseline:
        baseline = Baseline.from_findings(findings, sources)
        baseline.save(baseline_path)
        print(f"simlint: wrote {len(baseline)} finding(s) to "
              f"{baseline_path}")
        return 0

    baselined: List[Finding] = []
    if baseline_path is not None and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"simlint: cannot load baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2
        findings, baselined = baseline.split(findings, sources)

    if args.format == "sarif":
        from repro.analysis.sarif import render_sarif
        print(render_sarif(findings, baselined))
    elif args.format == "json":
        print(_render_json(findings, baselined, len(sources)))
    else:
        print(_render_text(findings, baselined, len(sources)))
    return 1 if findings else 0
