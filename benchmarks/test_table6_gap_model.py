"""Table 6: the burst gap model (r + m·Δg) vs measured runtimes.

Paper shape: the burst model (every message feels the added gap) tracks
the heavily communicating applications and, as anticipated,
*over-predicts* overall since not every message is sent inside a burst.
"""

from benchmarks.conftest import BENCH_SCALE, LARGE_NODES, run_once
from repro.harness import DIALS
from repro.harness.experiments import table6_gap_model

GAPS = DIALS["gap"].reduced
APPS = ("Radix", "EM3D(write)", "Sample", "NOW-sort", "Connect")


def test_table6(benchmark):
    table = run_once(benchmark, lambda: table6_gap_model(
        n_nodes=LARGE_NODES, scale=BENCH_SCALE, names=APPS,
        values=GAPS))
    print()
    print(table.render())

    # Heavily communicating apps: the model tracks within ~40% at our
    # scale (the paper's Table 6 is within ~10-20% at full scale).
    for app in ("Radix", "EM3D(write)", "Sample"):
        errors = table.prediction_error(app)
        assert all(abs(e) < 0.4 for e in errors), (app, errors)

    # The burst model never grossly under-predicts: at the top gap
    # point every prediction stays within ~40% below the measurement.
    # (The paper's Table 6 predictions mostly sit at or above measured;
    # our Radix falls short of that because its serialized histogram
    # phase also pays the gap along the ring — the same serial term the
    # overhead model misses in Table 5.)
    high_rows = [r for r in table.rows() if r["g (us)"] == GAPS[-1]]
    for row in high_rows:
        assert row["predicted_us"] >= 0.6 * row["measured_us"], row
