"""The whole-program SPMD checks (``repro.analysis.flow``).

Covers the checks against their planted-defect fixture twins (each bug
sits behind >= 2 call edges, so only the call graph can see it), the
call-graph approximations, rank taint, the shared parse cache, SARIF
output, the CLI contract, and the repo gate: ``src/repro`` must be
clean with no baseline to hide behind, and the certified-clean tree is
pinned to bit-identical run stats and RunCache keys."""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import main
from repro.analysis.core import (ProgramRule, SourceFile, all_rules,
                                 analyze_paths, analyze_source,
                                 analyze_sources, clear_parse_cache,
                                 default_rules, iter_python_files,
                                 load_source, parse_cache_stats)
from repro.analysis.flow import build_program, find_handlers

FIXTURES = Path(__file__).parent / "fixtures" / "simflow"
REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"


#: The rule ids of the whole-program checks.
PROGRAM_RULES = sorted(rule_id for rule_id, cls in all_rules().items()
                       if issubclass(cls, ProgramRule))


def flow_findings(*names):
    sources = {}
    for name in names:
        path = FIXTURES / name
        source = SourceFile(name, path.read_text(encoding="utf-8"))
        sources[source.path] = source
    return analyze_sources(sources, default_rules())


def findings_for(text, path="m.py"):
    return analyze_source(SourceFile(path, text), default_rules())


def program_for(text, path="m.py"):
    source = SourceFile(path, text)
    return build_program({path: source})


def by_name(index):
    return {f.qualname: f for f in index.functions}


# -- the three checks against their fixture twins ---------------------------

CASES = [
    ("transitive_blocking", "unyielded-blocking-call",
     ["run_rank", "_finish_phase", "_flush_remote"]),
    ("handler_purity", "handler-purity",
     ["_cache_handler", "_refresh", "_lookup_remote"]),
    ("rank_collective", "rank-dependent-collective",
     ["run_rank", "_publish", "_share"]),
    ("yield_integrity", "yield-integrity",
     ["_shutdown", "_drain_queue"]),
]


@pytest.mark.parametrize("stem,rule,chain", CASES,
                         ids=[c[0] for c in CASES])
def test_bad_fixture_caught_with_full_call_chain(stem, rule, chain):
    findings = flow_findings(f"{stem}_bad.py")
    assert [f.rule for f in findings] == [rule]
    assert [frame.function for frame in findings[0].chain] == chain
    # Every frame renders traceback-style with a real line number.
    rendered = findings[0].render()
    for frame in findings[0].chain:
        assert frame.line > 0
        assert f'File "{frame.path}", line {frame.line}' in rendered


@pytest.mark.parametrize("stem", [c[0] for c in CASES]
                         + ["handler_returns_generator"])
def test_good_twin_is_clean(stem):
    assert flow_findings(f"{stem}_good.py") == []


def test_handler_returning_a_blocking_generator_is_caught():
    """The layer sends a handler's return value as the reply, so a
    returned generator is never driven: named and lambda spellings."""
    findings = flow_findings("handler_returns_generator_bad.py")
    assert [(f.rule, f.line) for f in findings] == \
        [("handler-purity", 14), ("handler-purity", 19)]
    assert [[frame.function for frame in f.chain] for f in findings] == \
        [["_handler", "_refresh"], ["<lambda>", "_refresh"]]


# -- call graph -------------------------------------------------------------

def test_effects_converge_through_a_call_cycle():
    index = program_for(
        "def a(proc):\n"
        "    yield from b(proc)\n"
        "def b(proc):\n"
        "    yield from a(proc)\n"
        "    yield from proc.compute(1)\n")
    funcs = by_name(index)
    assert "blocks" in funcs["m.a"].effects
    assert "blocks" in funcs["m.b"].effects
    # The witness chain terminates despite the cycle.
    from repro.analysis.flow import chain_for
    assert len(chain_for(funcs["m.a"], "blocks")) <= 25


def test_method_resolution_covers_hierarchy_and_overrides():
    index = program_for(
        "class Base:\n"
        "    def step(self):\n"
        "        yield from self.helper()\n"
        "    def helper(self):\n"
        "        return None\n"
        "class Impl(Base):\n"
        "    def helper(self):\n"
        "        yield from self.proc.am.rpc(0, 'x', 1)\n")
    funcs = by_name(index)
    # self.helper() from Base.step sees the Impl override (CHA).
    targets = {t.qualname
               for call in funcs["m.Base.step"].calls
               for t in call.targets}
    assert {"m.Base.helper", "m.Impl.helper"} <= targets
    assert "blocks" in funcs["m.Base.step"].effects


def test_annotated_parameter_receiver_resolves():
    text = ("class Worker:\n"
            "    def pump(self):\n"
            "        yield from self.am.drain()\n"
            "def drive(w: 'Worker'):\n"
            "    w.pump()\n")
    call = by_name(program_for(text))["m.drive"].calls[0]
    assert [t.qualname for t in call.targets] == ["m.Worker.pump"]
    # ...which makes drive a yield-integrity finding.
    assert {f.rule for f in findings_for(text)} == {"yield-integrity"}


def test_lambda_handlers_resolve_through_local_names():
    text = ("def install(table):\n"
            "    notify = lambda am, packet: am.host.poll()\n"
            "    table.register('x', notify)\n")
    handlers = find_handlers(program_for(text))
    assert len(handlers) == 1
    handler = next(iter(handlers))
    assert handler.name == "<lambda>"
    assert "blocks" in handler.effects     # am.host.poll blocks...
    findings = findings_for(text)          # ...in a handler
    assert [(f.rule, f.line) for f in findings] == [("handler-purity", 2)]


def test_decorated_functions_keep_their_effects():
    findings = findings_for(
        "import functools\n"
        "@functools.wraps(print)\n"
        "def helper(proc):\n"
        "    yield from proc.poll()\n"
        "def run_rank(proc):\n"
        "    helper(proc)\n"
        "    yield from proc.compute(1)\n")
    assert [f.rule for f in findings] == ["unyielded-blocking-call"]


def test_return_forwarding_counts_as_generator_like():
    text = ("def make(proc):\n"
            "    return proc.am.rpc(0, 'x', 1)\n"
            "def run_rank(proc):\n"
            "    yield from make(proc)\n")
    assert by_name(program_for(text))["m.make"].gen_like
    assert findings_for(text) == []


# -- rank taint -------------------------------------------------------------

def test_param_taint_crosses_the_call_edge():
    source = SourceFile("t.py", (
        "def _maybe_report(proc, leader):\n"
        "    if leader:\n"
        "        yield from _report(proc)\n"
        "def _report(proc):\n"
        "    yield from proc.allreduce(1)\n"
        "def run_rank(proc):\n"
        "    is_leader = proc.rank == 0\n"
        "    yield from _maybe_report(proc, is_leader)\n"))
    findings = analyze_source(source, default_rules())
    assert [f.rule for f in findings] == ["rank-dependent-collective"]
    assert "rank-tainted value" in findings[0].message


def test_local_dataflow_taint_without_rank_in_the_test():
    source = SourceFile("t.py", (
        "def run_rank(proc):\n"
        "    vr = (proc.rank - 1) % proc.n_ranks\n"
        "    half = vr // 2\n"
        "    if half == 0:\n"
        "        yield from proc.barrier()\n"))
    findings = analyze_source(source, default_rules())
    assert [f.rule for f in findings] == ["rank-dependent-collective"]
    # Only the taint sees this one: the test never mentions 'rank'.
    assert "tainted" in findings[0].message


def test_received_values_are_not_tainted():
    source = SourceFile("t.py", (
        "def run_rank(proc):\n"
        "    total = yield from proc.allreduce(proc.rank)\n"
        "    if total > 4:\n"
        "        yield from proc.barrier()\n"))
    assert analyze_source(source, default_rules()) == []


def test_early_return_guard_balances_against_continuation():
    # Both sides reach the barrier exactly once: no finding.
    balanced = SourceFile("t.py", (
        "def run_rank(proc):\n"
        "    if proc.rank == 0:\n"
        "        yield from proc.barrier()\n"
        "        return\n"
        "    yield from proc.barrier()\n"))
    assert analyze_source(balanced, default_rules()) == []
    # Ranks that exit early never reach the continuation collective.
    unbalanced = SourceFile("t.py", (
        "def run_rank(proc):\n"
        "    if proc.rank > 1:\n"
        "        return\n"
        "    yield from proc.barrier()\n"))
    findings = analyze_source(unbalanced, default_rules())
    assert [f.rule for f in findings] == ["rank-dependent-collective"]


def test_balanced_collectives_across_calls_are_exempt():
    assert flow_findings("rank_collective_good.py") == []


# -- suppressions and CLI ---------------------------------------------------

def test_flow_findings_honor_inline_suppressions():
    source = SourceFile("t.py", (
        "def _helper(proc):\n"
        "    yield from proc.am.drain()\n"
        "def run_rank(proc):\n"
        "    yield from proc.compute(1)\n"
        "    _helper(proc)  # simlint: disable=unyielded-blocking-call"
        " - spawn pattern\n"))
    assert analyze_source(source, default_rules()) == []


def test_cli_deep_exit_codes():
    bad = str(FIXTURES / "transitive_blocking_bad.py")
    good = str(FIXTURES / "transitive_blocking_good.py")
    assert main([good]) == 0
    # The whole-program checks run with no flag...
    assert main([bad]) == 1
    # ...and --deep is a no-op kept for old command lines.
    assert main(["--deep", bad]) == 1


def test_cli_deep_is_accepted_and_src_repro_exits_clean(capsys):
    assert main(["--deep", str(SRC)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "--deep" not in capsys.readouterr().out


def test_cli_list_rules_includes_flow_checks(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert PROGRAM_RULES == [
        "handler-arity", "handler-purity", "one-drain",
        "rank-dependent-collective", "unyielded-blocking-call",
        "yield-integrity"]
    for rule_id in PROGRAM_RULES:
        assert rule_id in out
    assert "flow-" not in out and "--deep" not in out


def test_cli_rules_selects_any_listed_id(capsys):
    """--rules takes every id --list-rules prints, whole-program ones
    included, and runs only those."""
    bad = str(FIXTURES / "rank_collective_bad.py")
    args = [bad]
    assert main(["--rules", "rank-dependent-collective"] + args) == 1
    assert "[rank-dependent-collective]" in capsys.readouterr().out
    assert main(["--rules", "handler-purity", "--deep"] + args) == 0
    assert main(["--rules", "flow-rank-collective"] + args) == 2


# -- SARIF ------------------------------------------------------------------

def test_sarif_output_matches_golden_fixture(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    assert main(["--format", "sarif", "rank_collective_bad.py"]) == 1
    produced = json.loads(capsys.readouterr().out)
    golden = json.loads(
        (FIXTURES / "expected_rank_collective.sarif.json").read_text())
    assert produced == golden


def test_sarif_clean_run_has_no_results(capsys):
    assert main(["--format", "sarif",
                 str(FIXTURES / "rank_collective_good.py")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == "2.1.0"
    assert report["runs"][0]["results"] == []
    rule_ids = {r["id"] for r in report["runs"][0]["tool"]["driver"]["rules"]}
    assert rule_ids == set(all_rules())


# -- parse cache and perf smoke ---------------------------------------------

def test_parse_cache_shares_one_parse_between_lint_and_flow():
    clear_parse_cache()
    files = list(iter_python_files([SRC]))
    analyze_paths([SRC], default_rules())
    first = parse_cache_stats()
    assert first["misses"] == len(files)
    assert first["hits"] == 0
    # A second run re-loads every file: all hits, no re-parse.
    analyze_paths([SRC], default_rules())
    second = parse_cache_stats()
    assert second["misses"] == first["misses"]
    assert second["hits"] == len(files)


def test_perf_smoke_full_lint_plus_flow_under_wall_clock_floor():
    clear_parse_cache()
    start = time.perf_counter()
    findings, checked = analyze_paths([SRC], default_rules())
    elapsed = time.perf_counter() - start
    assert findings == [] and checked > 60
    assert elapsed < 30.0, f"lint+flow took {elapsed:.1f}s"


# -- the repo gate ----------------------------------------------------------

def test_src_repro_is_flow_clean():
    """Acceptance: the whole-program checks run clean over the repo's
    own sources — no baseline required."""
    rules = [rule for rule in default_rules()
             if isinstance(rule, ProgramRule)]
    findings, checked = analyze_paths([SRC], rules)
    assert checked > 60
    assert findings == []


def test_flow_summaries_cover_the_runtime_stack():
    """Sanity: the fixpoint sees through the real runtime layers —
    collective roots, CHA app dispatch, and blocking reach."""
    sources = {}
    for path in iter_python_files([SRC]):
        source = load_source(path)
        sources[source.path] = source
    index = build_program(sources)
    funcs = {f.qualname: f for f in index.functions}
    barrier = funcs["repro.gas.runtime.Proc.barrier"]
    assert {"coll:barrier", "blocks"} <= barrier.effects
    drive = funcs["repro.cluster.machine.Cluster._drive"]
    run_rank_targets = {
        t.qualname for call in drive.calls
        if call.chain and call.chain[-1] == "run_rank"
        for t in call.targets}
    assert "repro.apps.base.Application.run_rank" in run_rank_targets
    assert len(run_rank_targets) > 5   # every registered app, via CHA
    assert "blocks" in drive.effects


# -- bit-identity pins ------------------------------------------------------
#
# The flow-clean tree is pinned to exact simulation output: any future
# restructuring motivated by a whole-program finding of apps/, gas/ or coll/ must keep
# run stats and RunCache keys bit-identical to these constants.

_PINS = {
    "radix": {
        "runtime_us": 2069.3999999999905,
        "events": 4480,
        "key": ("83d5b8e5ab625046d346eca376b7f23b64d57ce2"
                "20cf546319ce0dea9e94b52b"),
    },
    "barnes": {
        "runtime_us": 4051.680000000008,
        "events": 7492,
        "key": ("8e938c8229b9b3a5c5e96964a31f9178d0bef44f"
                "3a842a18ec81eb2d04d1943b"),
    },
}


def _pin_apps():
    from repro.apps import Barnes, RadixSort
    return {
        "radix": lambda: RadixSort(keys_per_proc=32),
        "barnes": lambda: Barnes(bodies_per_proc=8, steps=1),
    }


@pytest.mark.parametrize("name", sorted(_PINS))
def test_flow_certified_tree_is_bit_identical(name):
    from repro.am.tuning import TuningKnobs
    from repro.cluster.machine import Cluster
    from repro.harness import RunCache
    from repro.harness.runcache import run_key_spec
    from repro.network.loggp import LogGPParams

    make = _pin_apps()[name]
    params, knobs = LogGPParams(), TuningKnobs()
    result = Cluster(n_nodes=4, params=params, knobs=knobs,
                     seed=3).run(make())
    pin = _PINS[name]
    assert result.runtime_us == pin["runtime_us"]
    assert result.events_processed == pin["events"]
    key = RunCache.key_for(run_key_spec(
        make(), Cluster(4, params, knobs, seed=3)))
    assert key == pin["key"]
