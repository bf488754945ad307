"""Tests for the sweep harness, suite scaling, and reporting."""

import pytest

from repro.apps import RadixSort
from repro.harness import suite_for
from repro.harness.report import ascii_plot, render_table
from repro.harness.surface import sensitivity_surface
from repro.harness.sweeps import DIALS, Dial, SensitivityFigure, run_sweep
from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams


def test_suite_for_scales_inputs_to_fixed_total():
    suite_32 = suite_for(32)
    suite_16 = suite_for(16)
    radix_32 = next(a for a in suite_32 if a.name == "Radix")
    radix_16 = next(a for a in suite_16 if a.name == "Radix")
    # Same total keys: per-proc doubles when nodes halve.
    assert 16 * radix_16.keys_per_proc == 32 * radix_32.keys_per_proc


def test_suite_for_filters_by_name():
    suite = suite_for(8, names=["Radix", "Sample"])
    assert {app.name for app in suite} == {"Radix", "Sample"}


def test_suite_for_unknown_name_errors():
    with pytest.raises(KeyError):
        suite_for(8, names=["NoSuchApp"])


def test_overhead_sweep_produces_monotone_slowdown():
    sweep = run_sweep(RadixSort(keys_per_proc=48), 4, "overhead",
                      (2.9, 22.9, 102.9)).run()
    slowdowns = sweep.slowdowns()
    assert slowdowns[0] == pytest.approx(1.0)
    assert slowdowns[1] > 1.5
    assert slowdowns[2] > slowdowns[1]


def test_overhead_sweep_roughly_linear():
    sweep = run_sweep(RadixSort(keys_per_proc=48), 4, "overhead",
                      (2.9, 27.9, 52.9, 102.9)).run()
    series = sweep.series()
    # Slope between consecutive segments should be stable (linear
    # dependence, Section 5.1).
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = series
    slope_a = (y1 - y0) / (x1 - x0)
    slope_b = (y3 - y2) / (x3 - x2)
    assert slope_b == pytest.approx(slope_a, rel=0.30)


def test_gap_sweep_baseline_first():
    sweep = run_sweep(RadixSort(keys_per_proc=32), 4, "gap", (5.8, 55.0)).run()
    assert sweep.slowdowns()[0] == pytest.approx(1.0)
    assert sweep.slowdowns()[1] > 2.0


def test_latency_sweep_write_app_tolerant():
    # The distribution phase's pipelined writes largely ignore latency
    # (Figure 7); only the serialized histogram ring pays it.
    sweep = run_sweep(RadixSort(keys_per_proc=64), 4,
                      "latency", (5.0, 105.0)).run()
    assert sweep.slowdowns()[1] < 3.0


def test_run_sweep_custom_knob_function():
    added = Dial("added_overhead", "added overhead (us)", (0.0, 20.0),
                 lambda value, app, params, knobs, faults:
                 (app, knobs.with_changes(delta_o=value), faults))
    sweep = run_sweep(RadixSort(keys_per_proc=32), 4, added).run()
    assert sweep.parameter == "added_overhead"
    assert len(sweep.points) == 2
    assert sweep.points[1].knobs.delta_o == 20.0


def test_a_dial_turns_from_the_knobs_it_is_given():
    """A machine dial swept with ``knobs=`` pinned keeps the pin: the
    latency sweep at +25 us of overhead is the surface's o=25 column."""
    app, = suite_for(4, scale=0.05, names=["Sample"])
    plan = run_sweep(app, 4, "latency", (5.0, 30.0),
                     knobs=TuningKnobs.added_overhead(25.0))
    assert [task.cluster.knobs for task in plan.tasks] == [
        TuningKnobs(delta_o=25.0), TuningKnobs(delta_o=25.0, delta_L=25.0)]
    surface = sensitivity_surface("Sample", 4, "overhead", (25.0,),
                                  "latency", (25.0,), scale=0.05)
    # The surface's grid: (0, 0), (25, 0), (0, 25), (25, 25).
    assert [task.key for task in plan.tasks] \
        == [surface.tasks[1].key, surface.tasks[3].key]


def test_a_dial_answers_for_its_knobs_without_an_app():
    now, pinned = LogGPParams.berkeley_now(), TuningKnobs.added_overhead(25.0)
    assert DIALS["offered_rps"].knobs(400_000.0, now) == TuningKnobs()
    assert DIALS["drop_rate"].knobs(0.02, now, pinned) == pinned
    assert DIALS["gap"].knobs(15.8, now, pinned) \
        == TuningKnobs(delta_o=25.0, delta_g=10.0)


@pytest.mark.parametrize("name", ["overhead", "gap", "latency"])
def test_a_non_finite_dial_value_is_refused_by_name(name):
    """``max(0.0, nan)`` is ``0.0``: a NaN used to run the baseline
    machine.  Sweeps, predictions and campaigns all turn the dial
    through ``turn``; a value below the baseline still maps to it."""
    now, dial = LogGPParams.berkeley_now(), DIALS[name]
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"{name} dial"):
            dial.knobs(value, now)
    assert dial.knobs(0.0, now) == TuningKnobs()


def test_sweep_rows_are_renderable():
    sweep = run_sweep(RadixSort(keys_per_proc=32), 2, "overhead",
                      (2.9, 52.9)).run()
    text = SensitivityFigure("test", "overhead", {"Radix": sweep}).render()
    assert "Radix" in text and "slowdown" in text


def test_render_table_empty():
    assert "no rows" in render_table([], title="empty")


def test_render_table_alignment():
    text = render_table([{"a": 1, "b": "xx"}, {"a": 300, "b": "y"}])
    lines = text.splitlines()
    assert len({len(line) for line in lines}) == 1  # rectangular


def test_ascii_plot_contains_series_glyphs():
    plot = ascii_plot({"one": [(0, 1), (10, 5)],
                       "two": [(0, 1), (10, 2)]},
                      title="demo", x_label="x", y_label="y")
    assert "o" in plot and "x" in plot
    assert "one" in plot and "two" in plot
    assert "demo" in plot


def test_ascii_plot_no_data():
    assert "no data" in ascii_plot({}, title="void")
