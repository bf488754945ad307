"""The artifact registry holds up its end, and the drivers refuse bad
arguments at parse time.

One record of ``repro.harness.artifacts`` per table and figure feeds
``scripts/generate_experiments.py``, ``python -m repro.harness`` and the
claims, so these check the registry against the committed
``EXPERIMENTS.md`` and ``repro.harness.claims`` without simulating the
grid.  A refused argument exits 2, never 1: CI reads 1 as a failing
claim.
"""

import importlib
import importlib.util
import math
import re
from pathlib import Path

import pytest

from repro.harness import run_plans, suite_for
from repro.harness.artifacts import REGISTRY
from repro.harness.claims import CLAIMS

ROOT = Path(__file__).resolve().parent.parent


def _generator():
    spec = importlib.util.spec_from_file_location(
        "generate_experiments", ROOT / "scripts" / "generate_experiments.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _prefixes():
    return {claim.id.split(".")[0] for claim in CLAIMS}


def test_each_section_heading_is_one_records_in_file_order():
    headings = re.findall(r"^## (.*)$", (ROOT / "EXPERIMENTS.md").read_text(),
                          re.M)
    # The claims list closes the report; the generator writes it.
    assert headings[-1].startswith("Claims — ")
    assert headings[:-1] == [artifact.heading
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
    assert silent == {"Predicted sweeps", "Figure 9", "Table 7",
                      "Figure 10", "Figure 11"}


def test_every_cli_name_plans_drains_and_renders():
    """At ``--nodes 4 --scale 0.05`` with no cache, over Sample alone:
    every record ``--only`` offers reads Sample or no suite app, and
    one app keeps this to about a second of the whole CLI's four."""
    names = [name for name, artifact in REGISTRY.items() if artifact.cli]
    assert len(names) == 19
    values = run_plans([REGISTRY[name].planned(4, 0.05, ("Sample",))
                        for name in names], cache=None, jobs=2)
    for name, value in zip(names, values):
        assert value.render().strip(), name


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
        _generator()(["--apps", apps, "--out", str(out), "--no-cache"])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert said in err and "Radix, EM3D(write)" in err
    assert not out.exists()


def test_the_generator_refuses_an_out_its_json_would_overwrite(capsys,
                                                               tmp_path):
    out = tmp_path / "EXPERIMENTS.json"
    with pytest.raises(SystemExit) as refused:
        _generator()(["--out", str(out), "--no-cache"])
    assert refused.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert not out.exists()


#: driver -> (its module, arguments besides ``--scale``).
DRIVERS = {
    "generate_experiments": (None, ["--no-cache"]),
    "repro.harness": ("repro.harness.__main__",
                      ["--no-cache", "--only", "table3"]),
    "repro.cost record": ("repro.cost.cli", ["record", "--app", "Radix"]),
    "repro.cost report": ("repro.cost.cli",
                          ["report", "--apps", "Radix", "--no-cache"]),
    "repro.sanitize": ("repro.sanitize.cli", ["--all"]),
}


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf", "-inf", "half"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_driver_refuses_a_bad_scale_at_parse_time(driver, scale,
                                                        capsys):
    module, args = DRIVERS[driver]
    main = _generator() if module is None else \
        importlib.import_module(module).main
    with pytest.raises(SystemExit) as refused:
        main(args + ["--scale", scale])
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
    main = _generator() if module is None else \
        importlib.import_module(module).main
    with pytest.raises(SystemExit) as refused:
        main(args + ["--jobs", jobs])
    assert refused.value.code == 2
    assert "argument --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_suite_for_refuses_a_bad_scale_by_name(scale):
    with pytest.raises(ValueError, match="scale must be finite and > 0"):
        suite_for(32, scale=scale)


@pytest.mark.parametrize("nodes", ["0", "1"])
def test_the_cli_refuses_fewer_than_two_nodes(nodes, capsys):
    from repro.harness.__main__ import main
    with pytest.raises(SystemExit) as refused:
        main(["--nodes", nodes, "--only", "table3", "--no-cache"])
    assert refused.value.code == 2
    assert "--nodes" in capsys.readouterr().err
