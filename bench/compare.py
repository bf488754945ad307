#!/usr/bin/env python3
"""Compare two ledger result sets (``ledger.py`` outputs).

    python3 bench/compare.py BASE.json NEW.json
    python3 bench/compare.py --self A.json B.json

One row per (workload, metric): both medians, their ratio, the bound
``BENCHMARK.json`` fixes, both run-to-run spreads (interquartile range
over median) and a verdict by the choosing-metrics rules:

* ``regressed``  - the new median is worse than the base median by more
  than the bound;
* ``improved``   - the new side wins at least nine tenths of the paired
  runs and the medians differ by more than the base's own
  interquartile range;
* ``unresolved`` - neither, and a spread is wider than the bound,
  unless every new run beats every base run; also whenever a side has a
  single run (the traced layer figures), unless the values are equal;
* ``unchanged``  - otherwise.

Only end-to-end metrics have a bound and decide the exit code (1 on a
regressed one or on a higher failed share); the others use 0.10 and are
informational.  ``--self`` is the A/A mode for two sets of one commit:
it also fails on an unresolved end-to-end metric and on any exact count
or fingerprint that differs between paired runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
#: Verdict threshold for metrics ``BENCHMARK.json`` gives no bound.
INFORMATIONAL_BOUND = 0.10


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median; None when there
    are too few runs to have one."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    """``base[i]`` and ``new[i]`` are a pair (same seed, same order)."""
    if len(base) < 2 or len(new) < 2:
        # One traced run a side: nothing separates a change from noise.
        return "unchanged" if list(base) == list(new) else "unresolved"
    worse = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    if base_median and \
            worse * (new_median - base_median) / abs(base_median) > bound:
        return "regressed"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if worse * (n - b) < 0)
    if wins >= 0.9 * len(pairs):
        q1, _median, q3 = statistics.quantiles(base, n=4)
        if abs(new_median - base_median) > q3 - q1:
            return "improved"
    resolved = spread(base) <= bound and spread(new) <= bound
    separated = all(worse * (n - b) < 0 for n in new for b in base)
    return "unchanged" if resolved or separated else "unresolved"


def samples(side: dict) -> Dict[str, List[float]]:
    """Per host-time metric, one value per untraced run - or, for the
    layer figures only the traced run has, its single value."""
    found: Dict[str, List[float]] = {}
    for run in side["runs"]:
        for name, entry in run["metrics"].items():
            found.setdefault(name, []).append(entry["value"])
    traced = side.get("traced") or {"metrics": {}}
    for name, entry in traced["metrics"].items():
        found.setdefault(name, [entry["value"]])
    return found


def compare(base: dict, new: dict, declared: dict, self_mode: bool
            ) -> Dict[str, list]:
    """Rows, and the reasons (if any) the comparison fails."""
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in declared["end_to_end"] + declared["per_layer"]}
    rows, failures = [], []
    for workload, new_side in new["workloads"].items():
        base_side = base["workloads"].get(workload)
        if base_side is None:
            continue
        base_samples, new_samples = samples(base_side), samples(new_side)
        for name in sorted(new_samples, key=lambda n: (n not in bounds, n)):
            b, n = base_samples.get(name), new_samples[name]
            if not b:
                continue
            bound = bounds.get(name)
            what = verdict(b, n, better[name],
                           INFORMATIONAL_BOUND if bound is None else bound)
            base_median, new_median = (statistics.median(b),
                                       statistics.median(n))
            rows.append({
                "workload": workload, "metric": name,
                "base": base_median, "new": new_median,
                "ratio": new_median / base_median if base_median else None,
                "bound": bound, "base_spread": spread(b),
                "new_spread": spread(n), "verdict": what})
            if bound is not None and (
                    what == "regressed"
                    or (self_mode and what == "unresolved")):
                failures.append(f"{workload} {name}: {what}")

        def failed_share(side: dict) -> float:
            runs = side["runs"]
            attempted = sum(run["attempted"] for run in runs)
            return sum(run["failed"] for run in runs) / max(attempted, 1)

        if failed_share(new_side) > failed_share(base_side):
            failures.append(
                f"{workload}: failed share rose from "
                f"{failed_share(base_side):.4f} to "
                f"{failed_share(new_side):.4f}")

        # Simulated state is exact for a seed: paired runs must agree.
        differing = []
        for index, (b, n) in enumerate(zip(base_side["runs"],
                                           new_side["runs"])):
            if b["seed"] != n["seed"]:
                differing.append(f"run {index}: seeds {b['seed']} vs "
                                 f"{n['seed']} do not pair")
                continue
            for block in ("exact", "fingerprints"):
                for name in sorted(set(b[block]) | set(n[block])):
                    if b[block].get(name) != n[block].get(name):
                        differing.append(
                            f"run {index} (seed {b['seed']}) {block} "
                            f"{name}")
        for line in differing:
            rows.append({"workload": workload, "differs": line})
            if self_mode:
                failures.append(f"{workload} {line} differs")
    return {"rows": rows, "failures": failures}


def render(result: Dict[str, list]) -> str:
    def fmt(value: Optional[float], spec: str = ".5g") -> str:
        return "-" if value is None else format(value, spec)

    lines = [f"{'workload':15s} {'metric':38s} {'base':>11s} {'new':>11s} "
             f"{'ratio':>7s} {'bound':>6s} {'spread b/n':>13s}  verdict"]
    for row in result["rows"]:
        if "differs" in row:
            lines.append(f"{row['workload']:15s} DIFFERS {row['differs']}")
            continue
        spreads = (f"{fmt(row['base_spread'], '.3f')}/"
                   f"{fmt(row['new_spread'], '.3f')}")
        lines.append(
            f"{row['workload']:15s} {row['metric']:38s} "
            f"{fmt(row['base']):>11s} {fmt(row['new']):>11s} "
            f"{fmt(row['ratio'], '.3f'):>7s} {fmt(row['bound'], '.2f'):>6s} "
            f"{spreads:>13s}  {row['verdict']}")
    for failure in result["failures"]:
        lines.append(f"FAIL {failure}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--self", dest="self_mode", action="store_true",
                        help="A/A mode: two sets of the same commit")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = compare(json.loads(args.base.read_text()),
                     json.loads(args.new.read_text()), declared,
                     args.self_mode)
    print(render(result))
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
