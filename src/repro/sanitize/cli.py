"""``python -m repro.sanitize`` — run an app under the simsan sanitizer.

Apps are named either by their suite name (``Radix``, ``Connect``, ...,
built by :func:`repro.harness.suite.suite_for` for ``--nodes`` and
``--scale``, as every other driver sizes them) or as
``path/to/file.py:ClassName`` for ad-hoc applications (the planted
fixtures use this form).  Exit codes mirror simlint: 0 clean, 1 races,
a deadlock or a failed answer check, 2 usage errors.  A failed check
still reports the run's races, and every report names what simsan
does not see (:data:`~repro.sanitize.reports.BLIND_SPOTS`).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.cluster.machine import Cluster
from repro.gas.runtime import DEFAULT_LIVELOCK_LIMIT, LivelockError
from repro.harness.parallel import at_least, finite_positive, input_scale
from repro.harness.suite import suite_for
from repro.sanitize.reports import BLIND_SPOTS, DeadlockError

__all__ = ["main", "load_app"]


def load_app(spec: str):
    """Load the :class:`~repro.apps.base.Application` subclass a
    ``path/to/file.py:ClassName`` spec names, and build it."""
    path_text, class_name = spec.rsplit(":", 1)
    path = Path(path_text)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    module_spec = importlib.util.spec_from_file_location(
        f"_simsan_app_{path.stem}", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    try:
        cls = getattr(module, class_name)
    except AttributeError:
        raise KeyError(f"{path} defines no class {class_name!r}") from None
    return cls()


def _apps(args: argparse.Namespace) -> list:
    """The apps the command line names, in its order: suite names
    sized by ``suite_for``, ``file.py:Class`` specs loaded."""
    if args.all:
        return suite_for(args.nodes, args.scale)
    names = [spec for spec in args.apps if ":" not in spec]
    suite = {app.name: app
             for app in suite_for(args.nodes, args.scale, names=names)}
    return [suite[spec] if ":" not in spec else load_app(spec)
            for spec in args.apps]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize",
        description="simsan: happens-before race & deadlock sanitizer")
    parser.add_argument("apps", nargs="*",
                        help="suite app names (see --all) or "
                        "path/to/app.py:ClassName specs")
    parser.add_argument("--all", action="store_true",
                        help="run the whole ten-app suite")
    parser.add_argument("--nodes", type=at_least(1), default=8,
                        help="cluster size (default: 8)")
    parser.add_argument("--scale", type=input_scale, default=1.0,
                        help="suite input scale, the total input as at "
                        "32 nodes, like every driver's (default: 1.0)")
    parser.add_argument("--seed", type=int, default=11,
                        help="run seed (default: 11)")
    parser.add_argument("--run-limit-us", type=finite_positive,
                        default=None,
                        help="simulated-time budget per run")
    parser.add_argument("--livelock-limit", type=at_least(0),
                        default=DEFAULT_LIVELOCK_LIMIT,
                        help="failed-lock budget per rank")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    return parser


def _sanitized_run(app, args: argparse.Namespace) -> dict:
    """Run one app under the sanitizer; never raises for findings or
    for an answer check that fails, whose run still reports its races."""
    cluster = Cluster(args.nodes, seed=args.seed,
                      run_limit_us=args.run_limit_us,
                      livelock_limit=args.livelock_limit,
                      sanitize=True)
    entry = {"app": app.name, "races": [], "deadlock": None,
             "failure": None}
    try:
        result = cluster.run(app)
    except DeadlockError as exc:
        entry["deadlock"] = exc.report.to_dict()
        entry["failure"] = str(exc)
        return entry
    except (LivelockError, TimeoutError) as exc:
        entry["failure"] = f"{type(exc).__name__}: {exc}"
        return entry
    except AssertionError as exc:  # the suite's wrong-answer signal
        entry["failure"] = f"check failed: {exc}"
        report = getattr(exc, "sanitizer", None)  # set by Cluster.run
        if report is None:
            return entry
    else:
        report = result.sanitizer
        entry["runtime_us"] = result.runtime_us
    entry["races"] = [race.to_dict() for race in report.races]
    entry["report"] = report.to_dict()
    return entry


def _render_text(entries: List[dict]) -> str:
    lines: List[str] = []
    dirty = 0
    for entry in entries:
        findings = len(entry["races"]) \
            + (1 if entry["deadlock"] is not None else 0)
        if findings or entry["failure"]:
            dirty += 1
        for race in entry["races"]:
            prior, access = race["prior"], race["access"]
            lines.append(
                f"{entry['app']}: race on {race['location']}: "
                f"{prior['kind']} by rank {prior['rank']} at "
                f"{prior['site']} is unordered with {access['kind']} by "
                f"rank {access['rank']} at {access['site']} "
                f"[x{race['occurrences']}]")
        if entry["failure"]:
            lines.append(f"{entry['app']}: {entry['failure']}")
    lines.append(
        f"simsan: {dirty} finding(s) across {len(entries)} app(s)")
    lines.extend(f"simsan: blind spot: {spot}" for spot in BLIND_SPOTS)
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not (args.all or args.apps):
        parser.print_usage(sys.stderr)
        print("simsan: name at least one app or pass --all",
              file=sys.stderr)
        return 2
    try:
        apps = _apps(args)
    except (KeyError, FileNotFoundError, ValueError) as exc:
        print(f"simsan: {exc.args[0]}", file=sys.stderr)
        return 2

    entries = [_sanitized_run(app, args) for app in apps]
    dirty = any(entry["races"] or entry["deadlock"] is not None
                or entry["failure"] for entry in entries)
    if args.format == "json":
        print(json.dumps({"version": 1, "blind_spots": list(BLIND_SPOTS),
                          "apps": entries}, indent=2))
    else:
        print(_render_text(entries))
    return 1 if dirty else 0
