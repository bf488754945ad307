"""Smoke tests for the experiment entry points at tiny scale.

The paper's shape claims are the rows of ``repro.harness.claims``,
which ``python -m repro.harness`` checks on its full-scale
artifacts; these verify the plumbing (structure, rendering, N/A
handling, the drain) quickly, and that a bent curve fails its row.
"""

import functools
from types import SimpleNamespace

import pytest

from repro.am.tuning import TuningKnobs
from repro.cluster.machine import Cluster
from repro.harness import RunCache, claims, experiments
from repro.harness import extensions as extensions_mod
from repro.harness.extensions import ScalingStudy, occupancy_study
from repro.harness.parallel import SweepPoint
from repro.harness.sweeps import SensitivityFigure, SweepResult


TINY = dict(n_nodes=4, scale=0.1)


def test_table3_structure():
    table = experiments.table3_baseline_runtimes(
        node_counts=(2, 4), scale=0.1, names=["Radix", "Connect"])
    assert set(table) == {"Radix", "Connect"}
    assert all(set(by_nodes) == {2, 4} and all(
        runtime > 0 for runtime in by_nodes.values())
        for by_nodes in table.values())


def test_figure4_structure():
    runs = experiments.figure4_balance(names=["Sample"], **TINY)
    assert runs["Sample"].balance().shape == (4, 4)
    assert "Sample" in runs["Sample"].render_balance()


def test_table4_structure():
    table = experiments.table4_comm_summary(names=["Radb"], **TINY)
    rows = table.rows()
    assert rows[0]["Program"] == "Radb"
    assert "Table 4" in table.render()


def test_figure5_series_and_rows():
    figure = experiments.sensitivity_figure(
        "overhead", names=["Sample"], values=(2.9, 52.9), **TINY)
    sweep = figure.sweeps["Sample"]
    assert sweep.slowdowns()[0] == pytest.approx(1.0)
    assert sweep.slowdowns()[1] > 1.5
    assert figure.max_slowdown("Sample") > 1.5
    assert "slowdown" in figure.render()
    assert [x for x, _y in figure.series()["Sample"]] == [2.9, 52.9]


def test_table5_structure_and_baseline_exactness():
    table = experiments.table5_overhead_model(
        names=["Sample"], values=(2.9, 52.9), **TINY)
    rows = table.rows()
    assert rows[0]["measured_us"] == rows[0]["predicted_us"]
    assert len(table.prediction_error("Sample")) == 2


def test_table6_structure():
    table = experiments.table6_gap_model(
        names=["Radb"], values=(5.8, 55.0), **TINY)
    assert len(table.rows()) == 2
    assert "Table 6" in table.render()


def test_figure7_and_8_structure():
    figure7 = experiments.sensitivity_figure(
        "latency", names=["Connect"], values=(5.0, 55.0), **TINY)
    assert figure7.max_slowdown("Connect") >= 1.0
    figure8 = experiments.sensitivity_figure(
        "bulk_mb_s", names=["NOW-sort"], values=(38.0, 1.0), **TINY)
    assert figure8.max_slowdown("NOW-sort") >= 1.0


def test_tables_and_figures_share_their_baseline_runs(tmp_path):
    """Tables 3/4 and Figure 4 run the sweeps' own baseline point: one
    run key, so one simulation between all four artifacts."""
    cache = RunCache(tmp_path)
    calls = [
        (experiments.table3_baseline_runtimes,
         dict(node_counts=(4,), scale=0.1, names=["Radix"])),
        (experiments.table4_comm_summary, dict(names=["Radix"], **TINY)),
        (experiments.figure4_balance, dict(names=["Radix"], **TINY)),
        (experiments.sensitivity_figure,
         dict(parameter="overhead", names=["Radix"], values=(2.9, 22.9),
              **TINY)),
    ]
    for entry, kwargs in calls:
        cached = entry(cache=cache, **kwargs)
        plain = entry(**kwargs)
        if entry is experiments.table3_baseline_runtimes:
            assert cached == plain
        elif entry is experiments.figure4_balance:  # app -> its run
            assert [run.render_balance() for run in cached.values()] == \
                [run.render_balance() for run in plain.values()]
        else:
            assert cached.render() == plain.render()
    # The baseline once (then three hits) and the dialed point once.
    assert (cache.misses, cache.hits) == (2, 3)


def test_cli_runs_a_single_artifact(tmp_path, capsys):
    from repro.harness.__main__ import main
    out = tmp_path / "table4.md"
    argv = ["--nodes", "4", "--scale", "0.1", "--only", "table4",
            "--out", str(out)]
    cached = argv + ["--cache-dir", str(tmp_path / "cache")]
    assert main(cached) == 0
    said = capsys.readouterr().out
    assert f"wrote {out}\n" in said and "0 hits / 10 misses" in said
    text = out.read_text()
    assert text.startswith("## Table 4 — ") and "Radix" in text
    assert text.count("\n## ") == 0  # no other section, no claims
    assert not out.with_suffix(".json").exists()
    # Report mode honours the flags campaign mode does.
    assert main(cached + ["--jobs", "2"]) == 0
    assert "10 hits / 0 misses" in capsys.readouterr().out
    assert out.read_text() == text
    # Without --out, the section goes to stdout and nothing else does.
    assert main(argv[:4] + ["--only", "table4", "--cache-dir",
                            str(tmp_path / "cache")]) == 0
    printed = capsys.readouterr()
    assert printed.out == text and "10 hits / 0 misses" in printed.err
    assert main(argv[:4] + ["--only", "table1", "--no-cache"]) == 0
    assert "RunCache(" not in "".join(capsys.readouterr())


def test_cli_drains_everything_selected_once_at_the_asked_jobs(
        monkeypatch, capsys):
    """Table 8 and Figure 11 used to drop ``--jobs`` and run serially,
    and Figure 11's offered-load sweep is also its o = 2.9 knee sweep,
    which ``--no-cache`` used to simulate twice."""
    from repro.harness import parallel
    from repro.harness.__main__ import main
    drains = []
    real = parallel.run_points

    def spy(tasks, cache=None, jobs=None, **kwargs):
        drains.append((len(tasks), len({task.key for task in tasks}),
                       cache, jobs))
        return real(tasks, cache=cache, jobs=jobs, **kwargs)

    monkeypatch.setattr(parallel, "run_points", spy)
    assert main(["--nodes", "4", "--scale", "0.1", "--only", "table8",
                 "figure11", "--jobs", "2", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Table 8" in out and "Figure 11" in out
    (tasks, keys, cache, jobs), = drains
    assert tasks == keys == 55 and cache is None and jobs == 2


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
    assert warm == cold == study(jobs=2)

    monkeypatch.setattr(extensions_mod, "Cluster",
                        functools.partial(Cluster, run_limit_us=1.0))
    with pytest.raises(RuntimeError, match="budget exceeded"):
        study()


def test_a_bent_curve_fails_its_claim_with_the_measured_value():
    """Radix's scale-0.5 runtimes (Tables 4-5 of EXPERIMENTS.md) hold
    their rows; halving the o=103 point, or claiming it was dialed 50 µs
    further than it was, fails them.  Nothing is simulated."""
    runtimes = (40170.2, 158362.5, 629825.2, 1225116.8)
    stats = SimpleNamespace(max_messages_per_node=4153)

    def check(runtimes_us, delta_o=100.0, scale=0.5, apps=("Radix",)):
        points = [SweepPoint(o, TuningKnobs(), SimpleNamespace(
            runtime_us=runtime, stats=stats))
            for o, runtime in zip((2.9, 12.9, 52.9, 102.9), runtimes_us)]
        built = {
            "figure5": SensitivityFigure("Figure 5", "o", {"Radix": SweepResult(
                "Radix", 32, "overhead", points)}),
            "scaling": ScalingStudy("Radix", delta_o, {32: (
                runtimes_us[0], runtimes_us[-1], 4153)})}
        rows = [c for c in claims.CLAIMS
                if c.id in ("f5.radix_linear", "scaling.residual_32")]
        return {row["id"]: (row["status"], row["measured"])
                for row in claims.evaluate(built, scale, apps, rows)}

    assert check(runtimes) == {
        "f5.radix_linear": ("holds", 1.0101),
        "scaling.residual_32": ("holds", round(1225116.8 / 870770.2, 4))}
    bent = runtimes[:3] + (runtimes[3] / 2,)
    assert check(bent)["f5.radix_linear"] == ("fails", None)  # turns down
    assert check(runtimes, delta_o=150.0)["scaling.residual_32"] == \
        ("fails", round(1225116.8 / (40170.2 + 2 * 4153 * 150.0), 4))
    # Out of its scale, or without its app, a row is N/A, not dropped.
    assert set(check(bent, scale=0.1).values()) == {("n/a", None)}
    assert set(check(bent, apps=("Sample",)).values()) == {("n/a", None)}
