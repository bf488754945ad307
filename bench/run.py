#!/usr/bin/env python3
"""One run of one ledger workload (see bench/README.md for the method).

    python3 bench/run.py --workload suite32_cold --seed 13 \
        --seconds 24 --trace 0

repeats the workload's round of ops until ``--seconds`` have passed,
times each op in seconds scaled to a nominal box speed
(``yardstick.py``) and keeps the median over the rounds, checks every
output, prints each metric by name with its unit, and ends with one
JSON result line.  With
``--trace 1`` it spends half the time on plain rounds, then profiles one
more round and folds it by layer (``layers.py``); the result line then
carries the per-layer metrics instead of the end-to-end ones.  Metric
names and units are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import LAYERS, fold
from yardstick import Clock, typical

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

#: The seed ``golden.json`` pins.
DEFAULT_SEED = 13
#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def import_program() -> None:
    """Put this checkout's ``src`` first on the path, or give up.

    An installed ``repro`` from elsewhere must never be measured in
    place of the checkout's, so a checkout without ``src/repro`` is an
    error even when ``import repro`` would succeed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {SRC / 'repro'} is "
                 "missing")
    sys.path.insert(0, str(SRC))
    import repro
    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"bench: imported repro from {repro.__file__}, not "
                 f"from {SRC}")


def time_setups(argv: List[str], clock: Clock) -> List[float]:
    """Seconds from process start to a ready workload, sampled in
    fresh interpreters so imports are paid every time."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-only", *argv]
    return [clock.time(lambda: subprocess.run(
                command, check=True, stdout=subprocess.DEVNULL))[1]
            for _ in range(SETUP_SAMPLES)]


class Checker:
    """Counts attempts and failures; an op fails when it raises, when
    its ``inspect`` rejects the output, or when its fingerprint moves
    between rounds or away from ``golden.json``."""

    def __init__(self, pinned: Dict[str, str]) -> None:
        self.pinned = pinned
        self.fingerprints: Dict[str, str] = {}
        self.attempted = 0
        self.errors: List[str] = []

    def __call__(self, op, value: Any, error: Optional[Exception]):
        self.attempted += 1
        outcome = None
        if error is None:
            try:
                outcome = op.inspect(value)
                self._compare(op.name, outcome.fingerprint)
            except Exception as exc:  # noqa: BLE001 - count, report, go on
                error = exc
        if error is not None:
            self.errors.append(f"{op.name}: {error!r}")
            print(f"FAILED {op.name}: {error!r}", file=sys.stderr)
            return None
        return outcome

    def _compare(self, name: str, fingerprint: str) -> None:
        if self.fingerprints.setdefault(name, fingerprint) != fingerprint:
            raise AssertionError("fingerprint differs from round one")
        if self.pinned.get(name, fingerprint) != fingerprint:
            raise AssertionError("fingerprint differs from golden.json")


def run_round(workload, index: int, checker: Checker,
              time_op: Callable[[Any], Tuple[Any, Any]]):
    """One pass over the op list: ``time_op``'s measurement and the
    checked outcome per op (an op that raised has neither)."""
    workload.begin_round(index)
    measured, outcomes = {}, {}
    for op in workload.ops:
        value = error = None
        gc.collect()
        try:
            value, measured[op.name] = time_op(op)
        except Exception as exc:  # noqa: BLE001 - a failed op, not a crash
            error = exc
        outcome = checker(op, value, error)
        if outcome is not None:
            outcomes[op.name] = outcome
    return measured, outcomes


def profiled(op):
    """``(op.run(), (its profile, raw wall seconds))``.  The yardstick
    would be profiled too and read slow, so this round is not scaled."""
    profile = cProfile.Profile()
    start = time.perf_counter()
    value = profile.runcall(op.run)
    return value, (profile.getstats(), time.perf_counter() - start)


def host_metrics(workload, op_s: Dict[str, float], outcomes,
                 exact: Dict[str, float]) -> Dict[str, float]:
    """Host-time metrics from per-op typical seconds, by phase."""
    seconds: Dict[str, float] = defaultdict(float)
    points: Dict[str, int] = defaultdict(int)
    for op in workload.ops:
        seconds[op.phase] += op_s[op.name]
        points[op.phase] += outcomes[op.name].points
    cold = seconds["cold"]
    metrics = {
        "round_s": sum(op_s.values()),
        "sim_msgs_per_s": exact["am.msgs"] / cold,
        "cold_points_per_s": points["cold"] / cold,
        "sim.host_us_per_event": cold * 1e6 / exact["sim.events"],
    }
    if "warm" in seconds:
        metrics["warm_points_per_s"] = points["warm"] / seconds["warm"]
    if "predict" in seconds:
        observers = {"sanitize": "sanitize.overhead_x",
                     "tracer": "instruments.tracer_overhead_x",
                     "record": "cost.record_overhead_x"}
        for phase, name in observers.items():
            metrics[name] = seconds[phase] / cold
        metrics["observe_overhead_x"] = sum(
            seconds[phase] for phase in observers) / (len(observers) * cold)
        metrics["predict_points_per_s"] = \
            points["predict"] / seconds["predict"]
        metrics["cost.predict_us_per_point"] = \
            seconds["predict"] * 1e6 / points["predict"]
    return metrics


def layer_metrics(workload, traced: Dict[str, tuple],
                  plain_wall_s: float) -> Dict[str, float]:
    """The profiled round, folded by layer (and again over the warm
    ops alone, which the cold phase would otherwise drown).  Raw wall
    seconds on both sides of ``trace.overhead_x``."""
    total: Dict[str, float] = defaultdict(float)
    warm: Dict[str, float] = defaultdict(float)
    for op in workload.ops:
        for layer, seconds in fold(traced[op.name][0]).items():
            total[layer] += seconds
            if op.phase == "warm":
                warm[layer] += seconds
    traced_wall_s = sum(wall for _stats, wall in traced.values())
    metrics = {"trace.overhead_x": traced_wall_s / plain_wall_s}
    profiled_s = sum(total.values())
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = total[layer]
        metrics[f"layer.{layer}.share"] = total[layer] / profiled_s
    if warm:
        warm_s = sum(warm.values())
        for layer in LAYERS:
            metrics[f"warm.layer.{layer}.share"] = warm[layer] / warm_s
    return metrics


def environment() -> Dict[str, Any]:
    return {"python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def plain_rounds(workload, checker: Checker, clock: Clock,
                 budget_s: float):
    """Rounds until the budget is spent: per op one (scaled seconds,
    wall seconds) per round, and its last good outcome.  A round only
    starts if the longest one so far would still end inside the
    budget, so a run never overshoots (the first always runs)."""
    def scaled(op):
        value, seconds, wall = clock.time(op.run)
        return value, (seconds, wall)

    samples: Dict[str, List[tuple]] = defaultdict(list)
    outcomes: Dict[str, Any] = {}
    rounds, longest = 0, 0.0
    started = time.perf_counter()
    while rounds == 0 or \
            time.perf_counter() - started + longest <= budget_s:
        round_started = time.perf_counter()
        measured, good = run_round(workload, rounds, checker, scaled)
        longest = max(longest, time.perf_counter() - round_started)
        for name, sample in measured.items():
            samples[name].append(sample)
        outcomes.update(good)
        rounds += 1
    missing = [op.name for op in workload.ops if op.name not in outcomes]
    if missing:
        sys.exit(f"bench: no good output from {missing}; nothing to report")
    return rounds, samples, outcomes


def main(argv: Optional[List[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, for bench/test_bench.py")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: bench/out/...)")
    parser.add_argument("--write-golden", action="store_true",
                        help=f"pin this run's fingerprints in golden.json "
                        f"(needs --seed {DEFAULT_SEED})")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        parser.error(f"golden.json pins seed {DEFAULT_SEED}")

    import_program()
    from workloads import WORKLOADS
    workload_class = {w.name: w for w in WORKLOADS}[args.workload]
    size = "quick" if args.quick else "full"
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    pinned = {}
    if args.seed == DEFAULT_SEED and not args.write_golden:
        pinned = golden.get(size, {}).get(args.workload, {})

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.setup_only:
            workload_class(args.seed, tmp, size).begin_round(0)
            return 0
        clock = Clock()
        setup_samples: List[float] = []
        if not args.trace:
            setup_samples = time_setups(
                ["--workload", args.workload, "--seed", str(args.seed)]
                + (["--quick"] if args.quick else []), clock)
        workload = workload_class(args.seed, tmp, size)
        checker = Checker(pinned.get("fingerprints", {}))
        # A traced run keeps half the budget for the profiled round
        # and the timers.
        rounds, samples, outcomes = plain_rounds(
            workload, checker, clock,
            args.seconds / 2 if args.trace else args.seconds)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        exact = workload.exact(outcomes)
        exact["sim.events_per_msg"] = exact["sim.events"] / exact["am.msgs"]
        for name, value in pinned.get("exact", {}).items():
            if exact[name] != value:
                checker.errors.append(f"{name}: {exact[name]} differs "
                                      f"from golden.json ({value})")
        op_s = {name: typical(seconds for seconds, _wall in values)
                for name, values in samples.items()}
        metrics = host_metrics(workload, op_s, outcomes, exact)
        metrics["peak_rss_mb"] = peak_rss_mb
        if setup_samples:
            metrics["setup_s"] = statistics.median(setup_samples)
        if args.trace:
            traced, _ = run_round(workload, rounds, checker, profiled)
            if len(traced) < len(workload.ops):
                sys.exit("bench: an op raised in the profiled round")
            plain_wall_s = sum(typical(wall for _seconds, wall in values)
                               for values in samples.values())
            metrics.update(layer_metrics(workload, traced, plain_wall_s))
            metrics.update(workload.timers(clock))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = len(checker.errors)
    report = {
        "schema": "repro-ledger-run-v1",
        "workload": args.workload, "seed": args.seed, "size": size,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds,
        "attempted": checker.attempted, "failed": failed,
        "errors": checker.errors,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "exact": {name: {"value": value, "unit": units[name]}
                  for name, value in exact.items()},
        "fingerprints": checker.fingerprints,
        "ops": {op.name: {"phase": op.phase,
                          "typical_s": op_s[op.name],
                          "samples_s": [s for s, _w in samples[op.name]],
                          "wall_samples_s":
                              [w for _s, w in samples[op.name]]}
                for op in workload.ops},
        "setup_samples_s": setup_samples,
        "env": environment(),
    }
    out = args.out if args.out is not None else \
        OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    if args.write_golden and not failed:
        golden.setdefault(size, {})[args.workload] = {
            "seed": args.seed,
            "fingerprints": checker.fingerprints,
            "exact": {name: value for name, value in exact.items()
                      if name.startswith("serve.knee_rps.")},
        }
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")

    print(f"# {args.workload} seed={args.seed} size={size} rounds={rounds} "
          f"attempted={checker.attempted} failed={failed}")
    measured = {**report["exact"], **report["metrics"]}
    for name, entry in measured.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    wanted = declared["end_to_end"]
    if args.trace:
        wanted = declared["per_layer"]
        for metric in wanted:  # another workload's metric reads 0 here
            measured.setdefault(metric["name"],
                                {"value": 0.0, "unit": metric["unit"]})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted, "failed": failed,
        "metrics": {m["name"]: measured[m["name"]] for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
