"""Figure 6: sensitivity to gap.

Paper shape: reactions vary from "unaffected by 100 µs of gap" to ~16x.
The four most frequent communicators (Radix, both EM3Ds, Sample) suffer
the largest slowdowns; everything else stays under ~4x even at
g = 105 µs, because gap is only felt on messages sent faster than the
gap — overhead, by contrast, is always paid.
"""

from benchmarks.conftest import BENCH_SCALE, LARGE_NODES, run_once
from repro.harness import DIALS
from repro.harness.experiments import sensitivity_figure

GAPS = DIALS["gap"].reduced


def test_figure6(benchmark):
    figure = run_once(benchmark, lambda: sensitivity_figure(
        "gap", n_nodes=LARGE_NODES, scale=BENCH_SCALE, values=GAPS))
    print()
    print(figure.render())

    peak = {name: figure.max_slowdown(name) for name in figure.sweeps}

    # Frequent communicators hurt badly.
    for chatty in ("Radix", "EM3D(write)", "Sample"):
        assert peak[chatty] > 5.0, (chatty, peak[chatty])
    # Infrequent communicators tolerate gap (paper: <= ~4x).
    for light in ("NOW-sort", "Radb", "Connect", "Murphi"):
        assert peak[light] < 4.0, (light, peak[light])

    # The worst-hit app is one of the frequent communicators.
    worst = max(peak, key=peak.get)
    assert worst in ("Radix", "EM3D(write)", "EM3D(read)", "Sample")

    # Linear response (burst-model behaviour) for Radix.
    series = figure.sweeps["Radix"].series()
    slopes = [(y2 - y1) / (x2 - x1)
              for (x1, y1), (x2, y2) in zip(series, series[1:])]
    assert max(slopes) < 1.6 * min(slopes)
