#!/usr/bin/env python3
"""Tuning collective algorithms with the LogGP cost model.

Walks the full `repro.coll` tuning story on one machine:

1. price every registered algorithm for a bulk broadcast with the
   closed-form model and show the predicted crossover as the payload
   grows;
2. measure the same algorithms in the simulator and compare picks;
3. run an allreduce microbenchmark three ways — the registry defaults,
   the model's pick and the measured best, each named with `algo=` —
   showing where a tuned schedule pulls ahead as bulk bandwidth
   collapses.

Run:  python examples/collective_tuning.py          (about a minute)
      python examples/collective_tuning.py --fast   (smaller grid)
"""

import sys

from repro.am.tuning import TuningKnobs
from repro.cluster.machine import Cluster
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


def schedule_shootout(params, knobs, iterations):
    print("-- allreduce microbenchmark: defaults vs the model's pick vs"
          " the measured best --")
    size = 65536

    def run(algo):
        bench = CollectiveBench("allreduce", algo=algo, size=size,
                                bulk=True, iterations=iterations)
        result = Cluster(N_NODES, knobs=knobs, seed=9).run(bench)
        dispatched = sorted(key.split("/", 1)[1]
                            for key in result.stats.collective_calls
                            if key.startswith("allreduce/"))
        return {"runtime us": round(result.runtime_us, 1),
                "dispatched": ",".join(dispatched)}

    measured = {algo: run(algo) for algo in
                eligible_algorithms("allreduce", elementwise=True)}
    model = next(algo for _cost, algo in predicted_ranking(
        "allreduce", N_NODES, size, params, knobs, bulk=True)
        if algo in measured)
    best = min(measured, key=lambda algo: measured[algo]["runtime us"])
    rows = [{"schedule": "defaults", **run(None)},
            {"schedule": "model pick (algo=)", **measured[model]},
            {"schedule": "measured best (algo=)", **measured[best]}]
    print(render_table(rows, title="64 KiB allreduce, slow bulk wire"))
    speedup = rows[0]["runtime us"] / rows[1]["runtime us"]
    print(f"model pick vs defaults: {speedup:.2f}x faster")


def main() -> None:
    fast = "--fast" in sys.argv
    sizes = (32, 4096, 65536) if fast else (32, 1024, 16384, 65536)
    iterations = 2 if fast else 4

    params = LogGPParams.berkeley_now()
    knobs = TuningKnobs.bulk_bandwidth(SLOW_MB_S, params)

    predicted_crossover(params, knobs, sizes)
    measured_picks(knobs, sizes, iterations)
    schedule_shootout(params, knobs, iterations)


if __name__ == "__main__":
    main()
