"""The simlint engine: suppressions, CLI, and the repo gate
(``src/repro`` itself must lint clean)."""

import json
from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_file, default_rules, main
from repro.analysis.core import PARSE_ERROR_RULE, SourceFile, analyze_source

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"


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
    """A rule-less ``# simlint: disable`` is not a suppression: the
    finding it used to hide is reported."""
    source = SourceFile("x.py", (
        "import time\n"
        "a = time.time()  # simlint: disable\n"
    ))
    assert [f.rule for f in analyze_source(source, default_rules())] \
        == ["wall-clock"]


def test_next_line_and_file_suppressions():
    """``disable-next-line=`` and ``disable-file=`` are not suppressions
    either: each finding is reported where it is."""
    next_line = SourceFile("x.py", (
        "import time\n"
        "# simlint: disable-next-line=wall-clock\n"
        "a = time.time()\n"
    ))
    assert [(f.line, f.rule)
            for f in analyze_source(next_line, default_rules())] \
        == [(3, "wall-clock")]
    whole_file = SourceFile("x.py", (
        "# simlint: disable-file=wall-clock\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    ))
    assert [(f.line, f.rule)
            for f in analyze_source(whole_file, default_rules())] \
        == [(3, "wall-clock"), (4, "wall-clock")]


@pytest.mark.parametrize("spelling", [
    "# simlint: disable", "# simlint: disable-next-line=wall-clock",
    "# simlint: disable-file=wall-clock"])
def test_cli_reports_what_a_removed_spelling_used_to_hide(
        tmp_path, capsys, spelling):
    target = tmp_path / "m.py"
    target.write_text(f"import time\nt = time.time()  {spelling}\n")
    assert main([str(target)]) == 1
    assert "[wall-clock]" in capsys.readouterr().out


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
    assert report["version"] == 2
    assert set(report) == {"version", "files_checked", "findings"}
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


@pytest.mark.parametrize("flag", ["--baseline=x.json", "--write-baseline"])
def test_cli_refuses_the_removed_baseline_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag, str(FIXTURES / "determinism_good.py")])
    assert exc.value.code == 2


def test_cli_unreadable_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "latin1.py"
    target.write_bytes(b"s = '\xe9'\n")
    assert main([str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("simlint: cannot read") and "latin1.py" in err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


# -- the repo gate ----------------------------------------------------------

def test_src_repro_lints_clean(src_analysis):
    """Acceptance: the linter runs clean on the repo's own sources,
    ten-app suite and artifact driver included (the one-drain rule
    checks ``python -m repro.harness``) — no baseline required."""
    assert src_analysis.checked > 60
    assert src_analysis.findings == []
