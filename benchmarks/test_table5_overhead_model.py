"""Table 5: the 2·m·Δo overhead model vs measured runtimes.

Paper shape: the model tracks the frequently communicating,
well-parallelised apps closely (Sample, EM3D(write)); it consistently
*under-predicts* apps with serial phases or retry amplification (Radix,
P-Ray, Murphi) — the serialization effect.
"""

from benchmarks.conftest import BENCH_SCALE, LARGE_NODES, run_once
from repro.harness import DIALS
from repro.harness.experiments import table5_overhead_model

OVERHEADS = DIALS["overhead"].reduced
APPS = ("Radix", "EM3D(write)", "Sample", "NOW-sort", "Radb")


def test_table5(benchmark):
    table = run_once(benchmark, lambda: table5_overhead_model(
        n_nodes=LARGE_NODES, scale=BENCH_SCALE, names=APPS,
        values=OVERHEADS))
    print()
    print(table.render())

    # The model is exact at the baseline point for every app.
    for app in APPS:
        first = next(r for r in table.rows() if r["app"] == app)
        assert first["measured_us"] == first["predicted_us"]

    # Sample and EM3D(write): the paper's showcase fits — prediction
    # within ~35% of measurement across the sweep at our scale.
    for app in ("Sample", "EM3D(write)"):
        errors = table.prediction_error(app)
        assert all(abs(e) < 0.35 for e in errors), (app, errors)

    # Radix: the serialization effect — the model under-predicts the
    # high-overhead points (measured exceeds predicted).
    radix_rows = [r for r in table.rows()
                  if r["app"] == "Radix" and r["o (us)"] == OVERHEADS[-1]]
    assert radix_rows[0]["measured_us"] > radix_rows[0]["predicted_us"]
