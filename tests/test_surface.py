"""Tests for 2-D sensitivity surfaces."""

import functools

import pytest

from repro.cluster.machine import Cluster
from repro.harness import RunCache, claims
from repro.harness import surface as surface_mod
from repro.harness.surface import (SensitivitySurface,
                                   overhead_gap_surface,
                                   sensitivity_surface)


def small_surface(**run):
    return sensitivity_surface(
        "Radb", n_nodes=4, x_dial="overhead", x_values=(25.0,),
        y_dial="gap", y_values=(25.0,), scale=0.05, **run)


def test_unknown_dial_rejected():
    with pytest.raises(ValueError):
        sensitivity_surface("Radix", 2, "colour", (1.0,), "gap", (1.0,))


def test_one_dial_on_both_axes_rejected():
    # Two amounts of one dial are one knob field: summing them would be
    # a 1-D sweep drawn as a surface.
    with pytest.raises(ValueError, match="two different"):
        sensitivity_surface("Radix", 2, "gap", (1.0,), "gap", (1.0,))


def test_baseline_corner_is_one():
    surface = small_surface()
    assert surface.at(0.0, 0.0) == pytest.approx(1.0)


def test_grid_includes_zero_automatically():
    surface = small_surface()
    assert surface.x_values[0] == 0.0
    assert surface.y_values[0] == 0.0
    assert len(surface.slowdown) == 4


def test_surface_monotone():
    surface = small_surface()
    assert surface.is_monotone()
    assert surface.at(25.0, 25.0) >= surface.at(25.0, 0.0)


def test_interaction_excess_definition():
    surface = SensitivitySurface(
        app_name="x", n_nodes=2, x_dial="overhead", y_dial="gap",
        x_values=[0.0, 10.0], y_values=[0.0, 10.0],
        slowdown={(0.0, 0.0): 1.0, (10.0, 0.0): 3.0,
                  (0.0, 10.0): 2.0, (10.0, 10.0): 4.5})
    # independent composition: 3 + 2 - 1 = 4; measured 4.5 -> +0.5.
    assert surface.interaction_excess(10.0, 10.0) \
        == pytest.approx(0.5)


def test_the_claims_rows_grade_a_surface():
    """The surface has no section: its three claims rows are what read
    it.  A redundant o x g corner holds all three; one where gap hurts
    more than overhead and the corner compounds fails two."""
    def graded(corner, gap_only):
        surface = SensitivitySurface(
            app_name="Sample", n_nodes=16, x_dial="overhead", y_dial="gap",
            x_values=[0.0, 100.0], y_values=[0.0, 100.0],
            slowdown={(0.0, 0.0): 1.0, (100.0, 0.0): 3.0,
                      (0.0, 100.0): gap_only, (100.0, 100.0): corner})
        return {row["id"]: row["status"] for row in claims.evaluate(
            {"surface": surface}, claims.SCALE, ("Sample",),
            [claim for claim in claims.CLAIMS
             if claim.id.startswith("surface.")])}

    assert graded(corner=3.5, gap_only=2.0) == {
        "surface.monotone": "holds", "surface.overhead_beats_gap": "holds",
        "surface.redundant_corner": "holds"}
    assert graded(corner=6.0, gap_only=3.5) == {
        "surface.monotone": "holds", "surface.overhead_beats_gap": "fails",
        "surface.redundant_corner": "fails"}


def test_overhead_gap_surface_shortcut():
    surface = overhead_gap_surface(app_name="Radb", n_nodes=2,
                                   values=(50.0,), scale=0.05)
    assert surface.x_dial == "overhead" and surface.y_dial == "gap"
    assert surface.at(50.0, 50.0) > 1.0


# ---------------------------------------------------------------------------
# The grid goes through the harness's one drain (cache, pool, taxonomy).
# ---------------------------------------------------------------------------

def test_surface_is_served_from_the_run_cache(tmp_path):
    cache = RunCache(tmp_path)
    cold = small_surface(cache=cache)
    assert (cache.hits, cache.misses) == (0, 4)
    warm = small_surface(cache=cache)
    assert (cache.hits, cache.misses) == (4, 4)  # nothing re-simulated
    assert warm == cold == small_surface()


def test_surface_pooled_equals_serial():
    assert small_surface(jobs=2).slowdown == small_surface().slowdown


def test_surface_over_budget_point_raises_with_its_taxonomy(monkeypatch):
    monkeypatch.setattr(surface_mod, "Cluster",
                        functools.partial(Cluster, run_limit_us=1.0))
    with pytest.raises(RuntimeError, match="budget exceeded"):
        small_surface()
