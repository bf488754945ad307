#!/usr/bin/env python3
"""Tuning collective algorithms with the LogGP cost model.

Walks the full `repro.coll` tuning story on one machine:

1. price every registered algorithm for a bulk broadcast with the
   closed-form model and show the predicted crossover as the payload
   grows;
2. measure the same algorithms in the simulator and compare picks;
3. calibrate a measured decision table and run an application-level
   sweep under each policy (fixed / model / measured), showing where
   the tuned schedules pull ahead as bulk bandwidth collapses.

Run:  python examples/collective_tuning.py          (about a minute)
      python examples/collective_tuning.py --fast   (smaller grid)
"""

import sys

from repro.am.tuning import TuningKnobs
from repro.cluster.machine import Cluster
from repro.coll import CollConfig, build_decision_table
from repro.coll.algorithms import eligible_algorithms
from repro.coll.bench import CollectiveBench
from repro.coll.model import predicted_ranking
from repro.harness.report import render_table
from repro.network.loggp import LogGPParams

N_NODES = 16
#: A wire 38x slower than the baseline Myrinet: where crossovers live.
SLOW_MB_S = 1.0


def predicted_crossover(params, knobs, sizes):
    print(f"-- model: broadcast on {N_NODES} nodes,"
          f" bulk wire at {SLOW_MB_S} MB/s --")
    rows = []
    for size in sizes:
        ranking = predicted_ranking("broadcast", N_NODES, size, params,
                                    knobs, bulk=size > 64)
        rows.append({"bytes": size,
                     "model pick": ranking[0][1],
                     "predicted us": round(ranking[0][0], 1),
                     "runner-up": ranking[1][1],
                     "margin": round(ranking[1][0] / ranking[0][0], 2)})
    print(render_table(rows, title="predicted cheapest algorithm"))
    print()


def measured_picks(knobs, sizes, iterations):
    print("-- simulator: same grid, measured --")
    rows = []
    for size in sizes:
        times = {}
        for algo in eligible_algorithms("broadcast"):
            bench = CollectiveBench("broadcast", algo=algo, size=size,
                                    bulk=size > 64, iterations=iterations)
            result = Cluster(N_NODES, knobs=knobs, seed=9).run(bench)
            times[algo] = result.runtime_us
        best = min(times, key=times.get)
        rows.append({"bytes": size, "measured best": best,
                     **{algo: round(us, 1)
                        for algo, us in sorted(times.items())}})
    print(render_table(rows, title="measured runtimes (us)"))
    print()


def policy_shootout(params, knobs, iterations):
    print("-- policies: allreduce microbenchmark under each tuner --")
    table = build_decision_table(
        n_ranks=N_NODES, primitives=("allreduce",), knobs=knobs,
        iterations=iterations, seed=5)
    configs = [("fixed (defaults)", None),
               ("model", CollConfig(policy="model")),
               ("measured", CollConfig(policy="measured", table=table))]
    rows = []
    for label, coll in configs:
        bench = CollectiveBench("allreduce", size=65536, bulk=True,
                                iterations=iterations)
        result = Cluster(N_NODES, knobs=knobs, seed=9, coll=coll).run(bench)
        dispatched = sorted(key.split("/", 1)[1]
                            for key in result.stats.collective_calls
                            if key.startswith("allreduce/"))
        rows.append({"policy": label,
                     "runtime us": round(result.runtime_us, 1),
                     "dispatched": ",".join(dispatched)})
    print(render_table(rows, title="64 KiB allreduce, slow bulk wire"))
    baseline = rows[0]["runtime us"]
    tuned = min(row["runtime us"] for row in rows[1:])
    print(f"tuned vs defaults: {baseline / tuned:.2f}x faster")


def main() -> None:
    fast = "--fast" in sys.argv
    sizes = (32, 4096, 65536) if fast else (32, 1024, 16384, 65536)
    iterations = 2 if fast else 4

    params = LogGPParams.berkeley_now()
    knobs = TuningKnobs.bulk_bandwidth(SLOW_MB_S, params)

    predicted_crossover(params, knobs, sizes)
    measured_picks(knobs, sizes, iterations)
    policy_shootout(params, knobs, iterations)


if __name__ == "__main__":
    main()
