"""The artifact registry holds up its end, and the drivers refuse bad
arguments at parse time.

One record of ``repro.harness.artifacts`` per table and figure feeds
``python -m repro.harness`` — the generator of ``EXPERIMENTS.md`` — and
the claims, so these check the registry against the committed
``EXPERIMENTS.md`` and ``repro.harness.claims`` without simulating the
grid.  A refused argument exits 2, never 1: CI reads 1 as a failing
claim.
"""

import importlib
import json
import math
import re
from pathlib import Path

import pytest

from repro.harness import parallel, run_plans, suite_for
from repro.harness.__main__ import main
from repro.harness.artifacts import REGISTRY
from repro.harness.claims import CLAIMS

ROOT = Path(__file__).resolve().parent.parent
#: The records ``--only`` names: those with a section.
SECTIONED = [name for name, artifact in REGISTRY.items()
             if artifact.section is not None]


def _prefixes():
    return {claim.id.split(".")[0] for claim in CLAIMS}


def test_each_section_heading_is_one_records_in_file_order():
    headings = re.findall(r"^## (.*)$", (ROOT / "EXPERIMENTS.md").read_text(),
                          re.M)
    # The claims list closes the report; the driver writes it.
    assert headings[-1].startswith("Claims — ")
    assert headings[:-1] == [artifact.heading_at(32)
                             for artifact in REGISTRY.values()
                             if artifact.section is not None]


def test_each_claim_prefix_belongs_to_exactly_one_record():
    owned = [prefix for artifact in REGISTRY.values()
             for prefix in artifact.prefixes]
    assert len(owned) == len(set(owned))
    assert set(owned) == _prefixes()
    assert all(artifact.title for artifact in REGISTRY.values()
               if artifact.prefixes)


def test_the_sections_without_a_claim_row_can_only_shrink():
    """ROADMAP item 17 grades every artifact section, which is every
    heading but the bulk calibration appendix and the claims list."""
    silent = {artifact.title for artifact in REGISTRY.values()
              if artifact.section is not None and artifact.name != "bulk"
              and not _prefixes() & set(artifact.prefixes)}
    assert silent == {"Figure 9", "Table 7", "Figure 10", "Figure 11"}


def test_every_cli_name_plans_drains_and_renders():
    """Each ``--only`` name's section renders from its own value and
    those of its ``reads`` alone, at ``--nodes 4 --scale 0.05`` with no
    cache, over Sample: every such record reads Sample or no suite app,
    and one app keeps this to a few seconds."""
    assert len(SECTIONED) == 19
    assert "bulk" in SECTIONED and "surface" not in SECTIONED
    built = dict(zip(REGISTRY, run_plans(
        [artifact.planned(4, 0.05, ("Sample",))
         for artifact in REGISTRY.values()], cache=None, jobs=2)))
    for name in SECTIONED:
        artifact = REGISTRY[name]
        assert built[name] is not None, name
        values = {read: built[read] for read in (name, *artifact.reads)}
        assert artifact.section(values).strip(), name


@pytest.mark.parametrize("name", ["figure5", "predict"])
def test_only_plans_the_record_and_what_its_section_reads(
        name, monkeypatch, tmp_path):
    """``--only figure5`` also drains Figure 5's 16-node sweep and the
    scaling study; ``--only predict`` also drains Figures 5-8.  The
    drain is stopped before anything simulates."""
    drained = []

    def spy(tasks, **_run):
        drained.extend(tasks)
        raise InterruptedError

    monkeypatch.setattr(parallel, "run_points", spy)
    with pytest.raises(InterruptedError):
        main(["--nodes", "4", "--scale", "0.05", "--no-cache",
              "--only", name, "--out", str(tmp_path / "only.md")])
    reads = REGISTRY[name].reads
    assert reads
    keys = {task.key for task in drained}
    assert keys == {task.key for read in (name, *reads)
                    for task in REGISTRY[read].planned(4, 0.05).tasks}
    assert not keys <= {task.key
                        for task in REGISTRY[name].planned(4, 0.05).tasks}


def test_a_report_off_the_32_node_machine_marks_every_row_na(tmp_path,
                                                               capsys):
    """The claims are stated for the paper's 32 nodes: at 4, the whole
    report is written, every row is ``n/a``, so nothing fails, and the
    claims paragraph says why."""
    out = tmp_path / "report.md"
    assert main(["--nodes", "4", "--scale", "0.05", "--apps", "Sample",
                 "--jobs", "2", "--no-cache", "--out", str(out)]) == 0
    rows = json.loads(out.with_suffix(".json").read_text())
    assert len(rows) == len(CLAIMS)
    assert {row["status"] for row in rows} == {"n/a"}
    text = out.read_text()
    assert text.startswith("# EXPERIMENTS")
    assert "`python -m repro.harness --scale 0.05 --out EXPERIMENTS.md`" \
        in text
    assert all(f"## {REGISTRY[name].heading_at(4)}\n" in text
               for name in SECTIONED)
    assert "## Table 3 — base runtimes, fixed input, 2 vs 4 nodes\n" in text
    claims_text = " ".join(text.split("## Claims — ")[1].split())
    assert "graded on the 32-node machine only, so at 4 nodes all " \
        f"{len(CLAIMS)} are n/a." in claims_text
    assert "not applicable at this scale" not in claims_text
    assert f"wrote {out} and {out.with_suffix('.json')}" in \
        capsys.readouterr().out


def test_table4_names_the_machine_it_ran_on(capsys):
    """Its heading and its table's title both read 4 at ``--nodes 4``."""
    assert main(["--nodes", "4", "--scale", "0.05", "--apps", "Sample",
                 "--only", "table4", "--jobs", "1", "--no-cache"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("## Table 4 — communication summary (4 nodes)\n")
    assert "Table 4: communication summary (4-node configuration)" in text


def test_a_record_with_none_of_its_apps_selected_plans_nothing():
    plan = REGISTRY["surface"].planned(32, 0.5, ("Radix",))
    assert plan.tasks == () and run_plans([plan], cache=None) == [None]


# ---------------------------------------------------------------------------
# Refusals.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("apps, said", [
    ("Radx", "unknown application names ['Radx']"),
    (",", "names no application"),
    (" , ", "names no application")])
def test_the_generator_refuses_a_bad_apps_with_exit_2(apps, said, capsys,
                                                       tmp_path):
    out = tmp_path / "out.md"
    with pytest.raises(SystemExit) as refused:
        main(["--apps", apps, "--out", str(out), "--no-cache"])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert said in err and "Radix, EM3D(write)" in err
    assert not out.exists()


def test_the_generator_refuses_an_out_its_json_would_overwrite(capsys,
                                                               tmp_path):
    out = tmp_path / "EXPERIMENTS.json"
    with pytest.raises(SystemExit) as refused:
        main(["--out", str(out), "--no-cache"])
    assert refused.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


def test_a_bare_only_is_refused_not_read_as_everything(capsys):
    """``--only`` with no name used to plan every record."""
    with pytest.raises(SystemExit) as refused:
        main(["--only", "--no-cache"])
    assert refused.value.code == 2
    assert "argument --only" in capsys.readouterr().err


#: driver -> (its module, arguments besides ``--scale``).  Without
#: ``--only`` the one driver generates ``EXPERIMENTS.md``.
DRIVERS = {
    "generate_experiments": ("repro.harness.__main__", ["--no-cache"]),
    "repro.harness": ("repro.harness.__main__",
                      ["--no-cache", "--only", "table3"]),
    "repro.cost record": ("repro.cost.cli", ["record", "--app", "Radix"]),
    "repro.sanitize": ("repro.sanitize.cli", ["--all"]),
}
#: (driver, a flag it writes a file to, the mode the flag belongs to:
#: ``--campaign`` or ``--store-gc``); ``repro.sanitize`` writes none.
OUTPUTS = [("generate_experiments", "--out", None),
           ("repro.harness", "--out", None),
           ("repro.cost record", "--out", None),
           ("generate_experiments", "--render", "--campaign"),
           ("generate_experiments", "--bench-out", "--campaign"),
           ("generate_experiments", "--store", "--campaign"),
           ("generate_experiments", "--store", "--store-gc")]


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "-inf", "half"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_driver_refuses_a_bad_scale_at_parse_time(driver, scale,
                                                        capsys):
    module, args = DRIVERS[driver]
    with pytest.raises(SystemExit) as refused:
        importlib.import_module(module).main(args + ["--scale", scale])
    assert refused.value.code == 2
    assert "--scale" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
@pytest.mark.parametrize("driver", sorted(
    name for name in DRIVERS if "record" not in name and
    "sanitize" not in name))
def test_every_driver_refuses_a_bad_jobs_at_parse_time(driver, jobs,
                                                       capsys):
    """``--jobs 0`` and ``--jobs -3`` used to run serially, silently."""
    module, args = DRIVERS[driver]
    with pytest.raises(SystemExit) as refused:
        importlib.import_module(module).main(args + ["--jobs", jobs])
    assert refused.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("driver, flag, mode", OUTPUTS,
                         ids=[f"{driver}-{flag}" + (f"-{mode}" if flag ==
                                                    "--store" else "")
                              for driver, flag, mode in OUTPUTS])
def test_every_driver_refuses_an_output_in_a_missing_directory(
        driver, flag, mode, capsys, tmp_path):
    """Such a path was found out only when written, after the run: a
    ``FileNotFoundError`` traceback and exit 1, a failing claim's code.
    It exits 2 at parse time, naming the flag, before anything runs.
    A ``--store`` there used to be created, directories and all, and a
    mistyped one started a fresh campaign that recomputed every point."""
    assert {name for name, _, _ in OUTPUTS} == set(DRIVERS) - {
        "repro.sanitize"}
    module, args = DRIVERS[driver]
    missing, store = tmp_path / "missing" / "x.md", tmp_path / "s.sqlite"
    if mode == "--campaign":
        args = args + ["--campaign", str(ROOT / "examples" /
                                         "campaign_drill.json")]
    elif mode == "--store-gc":
        args = args + ["--store-gc"]
    if mode and flag != "--store":
        args = args + ["--store", str(store)]
    with pytest.raises(SystemExit) as refused:
        importlib.import_module(module).main(args + [flag, str(missing)])
    assert refused.value.code == 2
    assert f"argument {flag}: no such directory: {missing.parent}" in \
        capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_suite_for_refuses_a_bad_scale_by_name(scale):
    with pytest.raises(ValueError, match="scale must be finite and > 0"):
        suite_for(32, scale=scale)


@pytest.mark.parametrize("nodes", ["0", "1"])
def test_the_cli_refuses_fewer_than_two_nodes(nodes, capsys):
    with pytest.raises(SystemExit) as refused:
        main(["--nodes", nodes, "--only", "table3", "--no-cache"])
    assert refused.value.code == 2
    assert "--nodes" in capsys.readouterr().err
