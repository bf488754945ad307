"""Extension studies beyond the paper's plotted figures.

1. Scaling: for a program with a serial phase (Radix), speedup erodes
   as overhead grows (Section 5.1's parallel-efficiency remark).
2. Investment: halving (o, g) beats doubling the CPUs for a
   communication-intensive app (Section 5.5's closing trade-off).
3. Occupancy: the Flash study's parameter hits at least as hard as the
   same host overhead, because it both lengthens round trips and rate-
   limits each interface (Section 6's comparison).
"""

import functools

import pytest

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.cluster.machine import Cluster
from repro.harness import RunCache
from repro.harness import extensions as extensions_mod
from repro.harness.extensions import (investment_study, occupancy_study,
                                      scaling_study)


def test_scaling_serial_residual_grows_with_p(benchmark):
    study = run_once(benchmark, lambda: scaling_study(
        app_name="Radix", node_counts=(16, 32), delta_o=100.0,
        scale=BENCH_SCALE))
    print()
    print(study.render())
    # The serialization effect, quantified between the paper's two
    # cluster sizes: the busiest-processor model's residual grows with
    # P (the histogram chain is ∝ P), eroding parallel efficiency under
    # overhead exactly as Section 5.1 analyses.
    residual16 = study.serial_residual(16)
    residual32 = study.serial_residual(32)
    assert residual32 > 1.1, residual32
    assert residual32 > residual16, (residual16, residual32)
    # Both configurations still slow by an order of magnitude.
    for n_nodes in (16, 32):
        assert study.slowdown(n_nodes) > 10.0


def test_investment_communication_beats_cpu(benchmark):
    study = run_once(benchmark, lambda: investment_study(
        app_name="Sample", n_nodes=16, scale=BENCH_SCALE))
    print()
    print(study.render())
    assert study.speedup("1/2 o and g") > study.speedup("2x cpu")
    assert study.speedup("2x cpu") > 1.0


def test_occupancy_at_least_as_harmful_as_overhead(benchmark):
    study = run_once(benchmark, lambda: occupancy_study(
        app_name="EM3D(read)", n_nodes=16,
        values=(0.0, 10.0, 25.0, 50.0), scale=BENCH_SCALE))
    print()
    print(study.render())
    occ = study.slowdowns("occupancy")
    ovh = study.slowdowns("overhead")
    # Both monotone...
    assert occ == sorted(occ) and ovh == sorted(ovh)
    # ...and occupancy is no gentler than overhead at the top value
    # (it adds latency AND serialises the interfaces, while sharing the
    # per-message magnitude).
    assert occ[-1] > 0.75 * ovh[-1]
    assert occ[-1] > 3.0


def test_extension_studies_go_through_the_one_drain(tmp_path, monkeypatch):
    """Cache, pool and failure taxonomy, as for every other study."""
    def study(**run):
        return occupancy_study(app_name="Radix", n_nodes=4,
                               values=(0.0, 25.0), scale=0.05, **run)

    cache = RunCache(tmp_path)
    cold = study(cache=cache)
    # Zero added occupancy and zero added overhead are the same run:
    # four points, three probes.
    assert (cache.hits, cache.misses) == (0, 3)
    warm = study(cache=cache)
    assert (cache.hits, cache.misses) == (3, 3)  # nothing re-simulated
    assert warm.rows() == cold.rows() == study(jobs=2).rows()

    monkeypatch.setattr(extensions_mod, "Cluster",
                        functools.partial(Cluster, run_limit_us=1.0))
    with pytest.raises(RuntimeError, match="budget exceeded"):
        study()
