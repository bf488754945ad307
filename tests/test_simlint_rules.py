"""Golden-finding tests: each shipped rule pack against its fixtures.

Every rule must (a) flag each annotated line of its ``*_bad`` fixture
and (b) stay silent on the ``*_good`` twin — the known-good/known-bad
pairing that proves a rule detects the bug class without false alarms.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_file, default_rules

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"


def findings_for(name):
    return analyze_file(FIXTURES / name, default_rules())


def lines_by_rule(findings, rule):
    return sorted(f.line for f in findings if f.rule == rule)


# -- determinism pack -------------------------------------------------------

def test_determinism_bad_fixture_golden_findings():
    findings = findings_for("determinism_bad.py")
    assert lines_by_rule(findings, "wall-clock") == [12, 13]
    assert lines_by_rule(findings, "env-read") == [18, 19]
    assert lines_by_rule(findings, "unseeded-rng") == [24, 25, 26]
    assert lines_by_rule(findings, "seed-independent-rng") == [32]
    assert lines_by_rule(findings, "set-iteration") == [38, 41, 43]
    assert len(findings) == 11


def test_determinism_good_fixture_is_clean():
    assert findings_for("determinism_good.py") == []


def test_seed_independent_rule_flags_the_em3d_bug_pattern():
    """The exact pre-fix em3d construction must be caught."""
    from repro.analysis.core import SourceFile, analyze_source
    source = SourceFile("apps/em3d.py", (
        "import numpy as np\n"
        "def setup_rank(self, proc):\n"
        "    rng = np.random.RandomState(proc.rank + 17)\n"
    ))
    findings = analyze_source(source, default_rules())
    assert lines_by_rule(findings, "seed-independent-rng") == [3]


def test_seed_independent_rule_accepts_fault_injector_derivation():
    """The fault injector's seed derivation (run seed mixed with the
    plan's salt) must lint clean — it is the sanctioned pattern."""
    from repro.analysis.core import SourceFile, analyze_source
    source = SourceFile("network/faults.py", (
        "import numpy as np\n"
        "def __init__(self, plan, seed):\n"
        "    derived_seed = (seed * 1000003 + plan.salt * 7919) % 2**32\n"
        "    self._rng = np.random.RandomState(derived_seed)\n"
    ))
    findings = analyze_source(source, default_rules())
    assert lines_by_rule(findings, "seed-independent-rng") == []


def test_seed_independent_rule_flags_salt_only_fault_rng():
    """A fault RNG keyed only on the plan's salt replays one stream for
    every --seed: the bug class the derivation rule exists to stop."""
    from repro.analysis.core import SourceFile, analyze_source
    source = SourceFile("network/faults.py", (
        "import numpy as np\n"
        "def __init__(self, plan, run_seed):\n"
        "    self._rng = np.random.RandomState(plan.salt * 7919)\n"
    ))
    findings = analyze_source(source, default_rules())
    assert lines_by_rule(findings, "seed-independent-rng") == [3]


# -- SPMD / generator-contract pack ----------------------------------------

def test_spmd_bad_fixture_golden_findings():
    findings = findings_for("spmd_bad.py")
    assert lines_by_rule(findings, "unyielded-blocking-call") == \
        [6, 7, 9, 13]
    assert lines_by_rule(findings, "rank-dependent-collective") == \
        [17, 20]
    assert lines_by_rule(findings, "handler-arity") == [26, 27]
    assert len(findings) == 8


def test_spmd_good_fixture_is_clean():
    assert findings_for("spmd_good.py") == []


def test_handler_purity_bad_fixture_golden_findings():
    findings = findings_for("handler_purity_bad.py")
    assert lines_by_rule(findings, "handler-purity") == [5, 8, 17]
    assert len(findings) == 3


def test_handler_purity_good_fixture_is_clean():
    assert findings_for("handler_purity_good.py") == []


def test_coll_bad_fixture_golden_findings():
    """The repro.coll entry points are covered by every SPMD rule."""
    findings = findings_for("coll_bad.py")
    assert lines_by_rule(findings, "unyielded-blocking-call") == [6, 7]
    assert lines_by_rule(findings, "rank-dependent-collective") == \
        [13, 17]
    assert lines_by_rule(findings, "handler-purity") == [26]
    assert len(findings) == 5


def test_coll_good_fixture_is_clean():
    assert findings_for("coll_good.py") == []


# -- hygiene pack -----------------------------------------------------------

def test_hygiene_bad_fixture_golden_findings():
    findings = findings_for("hygiene_bad.py")
    assert lines_by_rule(findings, "broad-except") == [7, 14]
    assert lines_by_rule(findings, "mutable-default-arg") == [18, 23]
    assert len(findings) == 4


def test_hygiene_good_fixture_is_clean():
    assert findings_for("hygiene_good.py") == []


def test_module_mutable_state_only_fires_under_apps():
    findings = findings_for("apps/stateful_module.py")
    assert lines_by_rule(findings, "module-mutable-state") == [3, 4]
    assert len(findings) == 2
    # The same content outside an apps/ directory is not flagged.
    from repro.analysis.core import SourceFile, analyze_source
    text = (FIXTURES / "apps" / "stateful_module.py").read_text()
    source = SourceFile("tools/stateful_module.py", text)
    assert analyze_source(source, default_rules()) == []


# -- dial-cost pack ---------------------------------------------------------

def test_dialcost_bad_fixture_golden_findings():
    findings = findings_for("network/dialcost_bad.py")
    assert lines_by_rule(findings, "untracked-dial-cost") == \
        [5, 6, 11, 17, 18, 20]
    assert len(findings) == 6


def test_dialcost_good_fixture_is_clean():
    assert findings_for("network/dialcost_good.py") == []


def test_dialcost_only_fires_under_am_or_network():
    """The same content outside am//network/ is not this rule's beat."""
    from repro.analysis.core import SourceFile, analyze_source
    text = (FIXTURES / "network" / "dialcost_bad.py").read_text()
    for path in ("apps/radix.py", "harness/sweeps.py"):
        source = SourceFile(path, text)
        findings = analyze_source(source, default_rules())
        assert lines_by_rule(findings, "untracked-dial-cost") == []
    source = SourceFile("am/layer.py", text)
    findings = analyze_source(source, default_rules())
    assert lines_by_rule(findings, "untracked-dial-cost") == \
        [5, 6, 11, 17, 18, 20]


def test_dialcost_real_messaging_layers_are_clean():
    """The shipped am/ and network/ trees must satisfy their own rule."""
    import pathlib
    import repro
    root = pathlib.Path(repro.__file__).parent
    for layer in ("am", "network"):
        for path in sorted((root / layer).glob("*.py")):
            findings = analyze_file(path, default_rules())
            assert lines_by_rule(findings, "untracked-dial-cost") == [], \
                f"{path} charges a hard-coded duration"


# -- rule catalogue ---------------------------------------------------------

def test_every_rule_has_at_least_one_failing_fixture():
    """Acceptance: each shipped rule detects something in the fixtures."""
    all_findings = []
    for name in ("determinism_bad.py", "spmd_bad.py",
                 "handler_purity_bad.py", "hygiene_bad.py",
                 "apps/stateful_module.py", "network/dialcost_bad.py"):
        all_findings.extend(findings_for(name))
    fired = {f.rule for f in all_findings}
    from repro.analysis import all_rules
    assert fired == set(all_rules())


@pytest.mark.parametrize("name", ["determinism_good.py",
                                  "spmd_good.py",
                                  "handler_purity_good.py",
                                  "hygiene_good.py",
                                  "coll_good.py",
                                  "network/dialcost_good.py",
                                  "suppressed.py"])
def test_clean_fixtures_produce_no_findings(name):
    assert findings_for(name) == []
