"""Figure 7: sensitivity to latency.

Paper shape: most applications are surprisingly tolerant of latency,
and the sensitivity *ordering is different* from overhead/gap — it
follows read frequency, not message frequency.  EM3D(read), the
worst-case blocking reader, tops the chart (~9x at L=105); the
write-based apps largely ignore added latency apart from the small tail
effect of the fixed window raising effective gap.
"""

from benchmarks.conftest import BENCH_SCALE, LARGE_NODES, run_once
from repro.harness import DIALS
from repro.harness.experiments import sensitivity_figure

LATENCIES = DIALS["latency"].reduced


def test_figure7(benchmark):
    figure = run_once(benchmark, lambda: sensitivity_figure(
        "latency", n_nodes=LARGE_NODES, scale=BENCH_SCALE,
        values=LATENCIES))
    print()
    print(figure.render())

    peak = {name: figure.max_slowdown(name) for name in figure.sweeps}

    # EM3D(read) is the most latency-sensitive application (paper ~9x).
    assert peak["EM3D(read)"] == max(peak.values())
    assert peak["EM3D(read)"] > 4.0

    # Read-based apps feel latency; the write-based sorts barely do.
    assert peak["EM3D(read)"] > 2.0 * peak["EM3D(write)"]
    for write_app in ("Radix", "Sample", "NOW-sort", "Radb", "Murphi"):
        assert peak[write_app] < 3.0, (write_app, peak[write_app])

    # The ordering is NOT the message-frequency ordering: Radix (the
    # most frequent communicator) sits below the read-based apps.
    assert peak["Radix"] < peak["EM3D(read)"]
    assert peak["Radix"] < peak["Connect"]

    # Latency sensitivity is much weaker than overhead sensitivity:
    # nothing slows down more than ~12x even at L = 105 us.
    assert max(peak.values()) < 12.0
