"""Figure 8: sensitivity to bulk-transfer bandwidth.

Paper shape: the suite barely cares about bulk bandwidth.  No
application slows more than ~3x even at 1 MB/s; nothing reacts until
bandwidth drops to ~15 MB/s; and NOW-sort is *disk-limited* — flat
until the network is slower than one 5.5 MB/s disk.
"""

from benchmarks.conftest import BENCH_SCALE, LARGE_NODES, run_once
from repro.harness import DIALS
from repro.harness.experiments import sensitivity_figure

BANDWIDTHS = DIALS["bulk_mb_s"].reduced


def test_figure8(benchmark):
    figure = run_once(benchmark, lambda: sensitivity_figure(
        "bulk_mb_s", n_nodes=LARGE_NODES, scale=BENCH_SCALE,
        values=BANDWIDTHS))
    print()
    print(figure.render())

    # Nothing slows by more than ~3x even at 1 MB/s (paper's headline).
    for name in figure.sweeps:
        peak = figure.max_slowdown(name)
        assert peak < 3.5, (name, peak)

    # Insensitive until ~15 MB/s: at that point every app is within
    # ~25% of its baseline.
    for name, sweep in figure.sweeps.items():
        at_15 = dict(sweep.series())[15.0]
        assert at_15 < 1.25, (name, at_15)

    # NOW-sort: flat while the network outruns one disk (5.5 MB/s),
    # visibly slower only at 1 MB/s.
    nowsort = dict(figure.sweeps["NOW-sort"].series())
    assert nowsort[5.5] < 1.3
    assert nowsort[1.0] > 1.5
    assert nowsort[1.0] == max(nowsort.values())

    # Short-message apps are essentially flat everywhere (the dial only
    # slows bulk fragments).
    for name in ("Radix", "Sample", "EM3D(write)", "EM3D(read)",
                 "Connect"):
        assert figure.max_slowdown(name) < 1.2, name
