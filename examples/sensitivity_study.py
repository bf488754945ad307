#!/usr/bin/env python3
"""A miniature version of the paper's whole evaluation (Section 5).

Sweeps each of the four LogGP dials over a subset of the benchmark
suite and prints slowdown curves as ASCII plots, reproducing the
qualitative content of Figures 5-8:

* overhead hurts everyone, linearly, frequent communicators most;
* gap hurts only the frequent communicators (bursty traffic);
* latency hurts only the read-based applications;
* bulk bandwidth barely matters until it drops below ~15 MB/s.

Run:  python examples/sensitivity_study.py          (a few minutes)
      python examples/sensitivity_study.py --fast   (smaller inputs)
"""

import sys

from repro.harness import DIALS, MACHINE_DIALS, run_plans
from repro.harness.experiments import sensitivity_figure
from repro.harness.report import render_table

APPS = ["Radix", "EM3D(write)", "EM3D(read)", "Sample", "NOW-sort",
        "Radb"]
N_NODES = 16


def summarize(figure) -> None:
    print(figure.render())
    rows = [{"app": name,
             "max slowdown": round(figure.max_slowdown(name), 2)}
            for name in figure.sweeps]
    rows.sort(key=lambda r: -r["max slowdown"])
    print(render_table(rows, title="worst-case slowdowns"))
    print()


def main() -> None:
    scale = 0.25 if "--fast" in sys.argv else 0.5

    # One experiment, a different dial turned: the four figures are
    # planned first and drained together, so each application's
    # baseline — every sweep's first point — is simulated once.
    figures = run_plans([
        sensitivity_figure(dial, n_nodes=N_NODES, scale=scale,
                           names=APPS, values=DIALS[dial].reduced)
        for dial in MACHINE_DIALS])
    for figure in figures:
        print("=" * 72)
        summarize(figure)

    print("Compare with the paper: overhead >> gap >> latency ~ "
          "bulk bandwidth.")


if __name__ == "__main__":
    main()
