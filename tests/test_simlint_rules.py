"""Golden-finding tests: each shipped rule against its fixtures.

Every rule must (a) flag each line :data:`PLANTED` lists for its
``*_bad`` fixture, by that rule alone, and (b) stay silent on the
``*_good`` twins — the known-good/known-bad pairing that proves a rule
detects the bug class without false alarms.
"""

from pathlib import Path

import pytest

from repro.analysis import all_rules, analyze_file, default_rules

FIXTURES = Path(__file__).parent / "fixtures" / "simlint"
FLOW_FIXTURES = Path(__file__).parent / "fixtures" / "simflow"


def findings_for(name, root=FIXTURES):
    return analyze_file(root / name, default_rules())


def lines_by_rule(findings, rule):
    return sorted(f.line for f in findings if f.rule == rule)


# -- seed derivation --------------------------------------------------------

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
    """A fault RNG seeded from the run seed, mixed with a plan field,
    must lint clean — it is the sanctioned pattern."""
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


# -- path scopes ------------------------------------------------------------

def test_module_mutable_state_only_fires_under_apps():
    """The planted apps/ fixture's content is not flagged elsewhere."""
    from repro.analysis.core import SourceFile, analyze_source
    text = (FIXTURES / "apps" / "stateful_module.py").read_text()
    source = SourceFile("tools/stateful_module.py", text)
    assert analyze_source(source, default_rules()) == []


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
        [5, 11, 12, 14, 15]


@pytest.mark.parametrize("fixture,elsewhere", [
    ("kernel_internals_bad.py", "sim/engine.py"),
    ("am/one_bus_bad.py", "harness/sweeps.py")])
def test_architecture_rules_keep_to_their_packages(fixture, elsewhere):
    """The kernel may build events; the harness may name observers."""
    from repro.analysis.core import SourceFile, analyze_source
    source = SourceFile(elsewhere, (FIXTURES / fixture).read_text())
    assert analyze_source(source, default_rules()) == []


# -- one rule per planted defect --------------------------------------------

#: (fixtures dir, bad fixture) -> {line: the one rule reported there}.
PLANTED = {
    (FIXTURES, "determinism_bad.py"): {
        12: "wall-clock", 13: "wall-clock", 18: "env-read",
        19: "env-read", 24: "unseeded-rng", 25: "unseeded-rng",
        26: "unseeded-rng", 32: "seed-independent-rng",
        38: "set-iteration", 41: "set-iteration", 43: "set-iteration"},
    (FIXTURES, "spmd_bad.py"): {
        6: "unyielded-blocking-call", 7: "unyielded-blocking-call",
        9: "unyielded-blocking-call", 13: "unyielded-blocking-call",
        17: "rank-dependent-collective", 20: "rank-dependent-collective",
        26: "handler-arity", 27: "handler-arity"},
    (FIXTURES, "coll_bad.py"): {
        6: "unyielded-blocking-call", 7: "unyielded-blocking-call",
        13: "rank-dependent-collective", 17: "rank-dependent-collective",
        26: "handler-purity"},
    (FIXTURES, "handler_purity_bad.py"): {
        5: "handler-purity", 8: "handler-purity", 17: "handler-purity"},
    (FIXTURES, "hygiene_bad.py"): {
        7: "broad-except", 14: "broad-except",
        18: "mutable-default-arg", 23: "mutable-default-arg"},
    (FIXTURES, "apps/stateful_module.py"): {
        3: "module-mutable-state", 4: "module-mutable-state"},
    (FIXTURES, "network/dialcost_bad.py"): {
        line: "untracked-dial-cost" for line in (5, 11, 12, 14, 15)},
    (FIXTURES, "kernel_internals_bad.py"): {
        line: "kernel-internals" for line in (5, 6, 7, 8)},
    (FIXTURES, "packet_kinds_bad.py"): {
        6: "packet-kind-member", 10: "packet-kind-member"},
    (FIXTURES, "am/one_bus_bad.py"): {
        line: "one-bus" for line in (5, 9, 10)},
    (FIXTURES, "cluster/one_bus_bad.py"): {8: "one-bus", 9: "one-bus"},
    (FIXTURES, "one_machine_bad.py"): {
        line: "one-machine" for line in (7, 8, 14)},
    (FIXTURES, "gas/one_collective_path_bad.py"): {
        line: "one-collective-path" for line in (9, 18, 22)},
    (FIXTURES, "one_drain_bad/harness/parallel.py"): {
        line: "one-drain" for line in (6, 7, 11, 12, 16)},
    (FIXTURES, "one_drain_bad/harness/__main__.py"): {
        line: "one-drain" for line in (6, 10, 12, 13)},
    (FLOW_FIXTURES, "transitive_blocking_bad.py"): {
        17: "unyielded-blocking-call"},
    (FLOW_FIXTURES, "rank_collective_bad.py"): {
        20: "rank-dependent-collective"},
    (FLOW_FIXTURES, "yield_integrity_bad.py"): {13: "yield-integrity"},
    (FLOW_FIXTURES, "handler_purity_bad.py"): {18: "handler-purity"},
    (FLOW_FIXTURES, "handler_returns_generator_bad.py"): {
        14: "handler-purity", 19: "handler-purity"},
}


@pytest.mark.parametrize("root,name", sorted(PLANTED),
                         ids=[f"{root.name}/{name}"
                              for root, name in sorted(PLANTED)])
def test_each_planted_defect_is_one_finding_of_one_rule(root, name):
    """Every planted line is reported, by exactly one rule, and no line
    is reported twice: one check per property, direct or transitive."""
    findings = findings_for(name, root)
    assert [(f.line, f.rule) for f in findings] == \
        sorted(PLANTED[root, name].items())


def test_every_rule_has_at_least_one_failing_fixture():
    """Acceptance: each shipped rule detects something in the fixtures."""
    fired = {rule for lines in PLANTED.values() for rule in lines.values()}
    assert fired == set(all_rules())


@pytest.mark.parametrize("name", ["determinism_good.py",
                                  "spmd_good.py",
                                  "handler_purity_good.py",
                                  "hygiene_good.py",
                                  "coll_good.py",
                                  "network/dialcost_good.py",
                                  "kernel_internals_good.py",
                                  "packet_kinds_good.py",
                                  "cluster/one_bus_good.py",
                                  "one_machine_good.py",
                                  "gas/one_collective_path_good.py",
                                  "one_drain_good/harness/parallel.py",
                                  "suppressed.py"])
def test_clean_fixtures_produce_no_findings(name):
    assert findings_for(name) == []
