"""The simlint engine: suppressions, baseline round trip, CLI, and the
repo gate (``src/repro`` itself must lint clean)."""

import json
from pathlib import Path

import pytest

from repro.analysis import (Baseline, Finding, all_rules, analyze_file,
                            analyze_paths, default_rules, main)
from repro.analysis.core import PARSE_ERROR_RULE, SourceFile, analyze_source

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"
REPO_ROOT = Path(__file__).parent.parent


# -- suppressions -----------------------------------------------------------

def test_inline_suppression_silences_only_named_rule():
    source = SourceFile("x.py", (
        "import time\n"
        "a = time.time()  # simlint: disable=wall-clock - justified\n"
        "b = time.time()  # simlint: disable=env-read - wrong rule\n"
    ))
    findings = analyze_source(source, default_rules())
    assert [f.line for f in findings] == [3]
    assert findings[0].rule == "wall-clock"


def test_suppression_without_rule_list_disables_everything():
    source = SourceFile("x.py", (
        "import time\n"
        "a = time.time()  # simlint: disable\n"
    ))
    assert analyze_source(source, default_rules()) == []


def test_next_line_and_file_suppressions():
    next_line = SourceFile("x.py", (
        "import time\n"
        "# simlint: disable-next-line=wall-clock\n"
        "a = time.time()\n"
    ))
    assert analyze_source(next_line, default_rules()) == []
    whole_file = SourceFile("x.py", (
        "# simlint: disable-file=wall-clock\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    ))
    assert analyze_source(whole_file, default_rules()) == []


def test_suppression_covers_multi_line_statements():
    source = SourceFile("x.py", (
        "import numpy as np\n"
        "rng = np.random.RandomState(  # simlint: disable=seed-independent-rng - fixture\n"
        "    3 + 17)\n"
    ))
    assert analyze_source(source, default_rules()) == []


def test_suppressed_fixture_is_fully_silenced():
    assert analyze_file(FIXTURES / "suppressed.py",
                        default_rules()) == []


# -- harness exemption ------------------------------------------------------

def test_wall_clock_and_env_rules_exempt_the_harness():
    text = ("import os, time\n"
            "t = time.time()\n"
            "d = os.environ.get('X')\n")
    inside = SourceFile("src/repro/harness/cli.py", text)
    outside = SourceFile("src/repro/sim/engine.py", text)
    assert analyze_source(inside, default_rules()) == []
    assert {f.rule for f in analyze_source(outside, default_rules())} \
        == {"wall-clock", "env-read"}


# -- parse errors -----------------------------------------------------------

def test_syntax_error_becomes_a_parse_error_finding():
    source = SourceFile("broken.py", "def broken(:\n")
    findings = analyze_source(source, default_rules())
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE


# -- baseline ---------------------------------------------------------------

def test_baseline_round_trip_silences_grandfathered_findings(tmp_path):
    path = FIXTURES / "hygiene_bad.py"
    source = SourceFile(str(path), path.read_text())
    findings = analyze_source(source, default_rules())
    assert findings
    sources = {source.path: source}
    baseline = Baseline.from_findings(findings, sources)
    baseline_path = tmp_path / "baseline.json"
    baseline.save(baseline_path)

    reloaded = Baseline.load(baseline_path)
    assert len(reloaded) == len(findings)
    new, old = reloaded.split(findings, sources)
    assert new == [] and len(old) == len(findings)


def test_baseline_survives_line_shifts_but_not_content_changes():
    original = SourceFile("m.py", "import time\nt = time.time()\n")
    findings = analyze_source(original, default_rules())
    baseline = Baseline.from_findings(findings,
                                      {original.path: original})
    # Same offending line, shifted down: still covered.
    shifted = SourceFile("m.py",
                         "import time\n\n\nt = time.time()\n")
    moved = analyze_source(shifted, default_rules())
    assert all(baseline.covers(f, shifted) for f in moved)
    # Changed line content: a new finding, not covered.
    edited = SourceFile("m.py",
                        "import time\nt2 = time.time()\n")
    changed = analyze_source(edited, default_rules())
    assert not any(baseline.covers(f, edited) for f in changed)


def test_baseline_rejects_unknown_format(tmp_path):
    bad = tmp_path / "baseline.json"
    bad.write_text(json.dumps({"format": 99, "findings": []}))
    with pytest.raises(ValueError):
        Baseline.load(bad)


# -- CLI --------------------------------------------------------------------

def test_cli_exit_codes_and_text_output(capsys):
    assert main([str(FIXTURES / "determinism_good.py")]) == 0
    assert main([str(FIXTURES / "determinism_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "seed-independent-rng" in out
    assert main(["/nonexistent/path.py"]) == 2
    assert main(["--rules", "no-such-rule",
                 str(FIXTURES / "determinism_good.py")]) == 2


def test_cli_json_format(capsys):
    assert main(["--format", "json",
                 str(FIXTURES / "spmd_bad.py")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["files_checked"] == 1
    rules = {f["rule"] for f in report["findings"]}
    assert rules == {"unyielded-blocking-call",
                     "rank-dependent-collective", "handler-arity"}


def test_cli_rules_subset(capsys):
    code = main(["--rules", "wall-clock",
                 str(FIXTURES / "determinism_bad.py")])
    assert code == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out and "unseeded-rng" not in out


def test_cli_write_baseline_then_gate_passes(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    target = str(FIXTURES / "hygiene_bad.py")
    assert main([target, "--baseline", str(baseline),
                 "--write-baseline"]) == 0
    # With every finding grandfathered, the gate passes...
    assert main([target, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
    # ...and without the baseline it still fails.
    assert main([target]) == 1


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


# -- the repo gate ----------------------------------------------------------

def test_src_repro_lints_clean():
    """Acceptance: the linter runs clean on the repo's own sources,
    ten-app suite and experiments generator included (the one-drain
    rule checks its driver) — no baseline required."""
    findings, checked = analyze_paths(
        [REPO_ROOT / "src" / "repro",
         REPO_ROOT / "scripts" / "generate_experiments.py"],
        default_rules())
    assert checked > 60
    assert findings == []


def test_committed_baseline_is_empty_for_apps():
    """Repo policy: app findings are fixed, never grandfathered (the
    whole committed baseline is empty)."""
    baseline = Baseline.load(REPO_ROOT / "simlint.baseline.json")
    assert [e for e in baseline.entries
            if "apps" in Path(e["path"]).parts] == []
    assert len(baseline) == 0
