#!/usr/bin/env python3
"""Run the whole ledger and gather it into one result set.

    python3 bench/ledger.py --out bench/results/BENCH_13.json

forks ``run.py`` once per measurement: ``--runs`` untraced runs of each
workload (run *i* uses seed ``--seed + i``; workloads are interleaved so
drift on the box hits all of them alike), then one traced run of each.
Two sets made with the same arguments pair up run by run, which is what
``compare.py`` relies on.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from run import DEFAULT_SEED, environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, trace: int, extra: List[str],
            scratch: Path) -> dict:
    out = scratch / "run.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--out", str(out),
         *extra],
        check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
    return json.loads(out.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of run 0 (default: the golden seed)")
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    seed = DEFAULT_SEED if args.seed is None else args.seed
    chosen = [name for name in names if name in args.workloads.split(",")]
    extra = ["--seconds", str(args.seconds)]
    if args.quick:
        extra.append("--quick")

    ledger = {"schema": "repro-ledger-v1", "claim": None,
              "seed": seed, "runs": args.runs, "seconds": args.seconds,
              "env": environment(),
              "workloads": {name: {"runs": [], "traced": None}
                            for name in chosen}}
    def save() -> None:
        # After every run: twenty minutes of runs outlive a late crash.
        # Unindented: a set is ~250 KB of samples, read by compare.py.
        args.out.write_text(json.dumps(ledger) + "\n")

    args.out.parent.mkdir(parents=True, exist_ok=True)
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        for index in range(args.runs):
            for name in chosen:
                report = one_run(name, seed + index, 0, extra,
                                 Path(scratch))
                ledger["workloads"][name]["runs"].append(report)
                save()
                print(f"run {index + 1}/{args.runs} {name}: round_s "
                      f"{report['metrics']['round_s']['value']:.3f} "
                      f"({report['rounds']} rounds, "
                      f"{report['failed']} failed)", flush=True)
        for name in chosen:
            ledger["workloads"][name]["traced"] = one_run(
                name, seed, 1, extra, Path(scratch))
            save()
            print(f"traced {name}", flush=True)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
