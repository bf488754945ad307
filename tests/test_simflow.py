"""simflow: the interprocedural effect & SPMD-congruence analyzer.

Covers the three checks against their planted-defect fixture twins
(each bug sits behind >= 2 call edges and must be *missed* by the
intra-procedural simlint rules), the call-graph approximations, rank
taint, the shared parse cache, SARIF output, the CLI contract, and the
repo gate: ``src/repro`` must be flow-clean with an empty committed
baseline, and the certified-clean tree is pinned to bit-identical run
stats and RunCache keys."""

import json
import time
from pathlib import Path

import pytest

from repro.analysis import Baseline, main
from repro.analysis.core import (SourceFile, analyze_file,
                                 analyze_source, clear_parse_cache,
                                 default_rules, iter_python_files,
                                 load_source, parse_cache_stats)
from repro.analysis.flow import (FLOW_RULES, analyze_program,
                                 build_program, find_handlers)

FIXTURES = Path(__file__).parent / "fixtures" / "simflow"
REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"


def flow_findings(*names):
    sources = {}
    for name in names:
        path = FIXTURES / name
        source = SourceFile(name, path.read_text(encoding="utf-8"))
        sources[source.path] = source
    return analyze_program(sources)


def program_for(text, path="m.py"):
    source = SourceFile(path, text)
    return build_program({path: source})


def by_name(index):
    return {f.qualname: f for f in index.functions}


# -- the three checks against their fixture twins ---------------------------

CASES = [
    ("transitive_blocking", "flow-transitive-blocking",
     ["run_rank", "_finish_phase", "_flush_remote"]),
    ("handler_purity", "flow-yield-integrity",
     ["_cache_handler", "_refresh", "_lookup_remote"]),
    ("rank_collective", "flow-rank-collective",
     ["run_rank", "_publish", "_share"]),
    ("yield_integrity", "flow-yield-integrity",
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


@pytest.mark.parametrize("stem", [c[0] for c in CASES])
def test_good_twin_is_clean(stem):
    assert flow_findings(f"{stem}_good.py") == []


@pytest.mark.parametrize("stem", [c[0] for c in CASES])
def test_planted_defect_is_invisible_to_simlint(stem):
    """Acceptance: each transitive defect passes every intra-procedural
    rule — only the whole-program analysis catches it."""
    assert analyze_file(FIXTURES / f"{stem}_bad.py",
                        default_rules()) == []


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
    index = program_for(
        "class Worker:\n"
        "    def pump(self):\n"
        "        yield from self.am.drain()\n"
        "def drive(w: 'Worker'):\n"
        "    w.pump()\n")
    funcs = by_name(index)
    call = funcs["m.drive"].calls[0]
    assert [t.qualname for t in call.targets] == ["m.Worker.pump"]
    # ...which makes drive a yield-integrity finding.
    from repro.analysis.flow import run_checks
    rules = {f.rule for f in run_checks(index)}
    assert rules == {"flow-yield-integrity"}


def test_lambda_handlers_resolve_through_local_names():
    index = program_for(
        "def install(table):\n"
        "    notify = lambda am, packet: am.host.poll()\n"
        "    table.register('x', notify)\n")
    handlers = find_handlers(index)
    assert len(handlers) == 1
    handler = next(iter(handlers))
    assert handler.name == "<lambda>"
    assert "blocks" in handler.effects     # am.host.poll blocks...
    from repro.analysis.flow import run_checks
    assert run_checks(index) == []  # ...directly: simlint's handler-purity


def test_decorated_functions_keep_their_effects():
    index = program_for(
        "import functools\n"
        "@functools.wraps(print)\n"
        "def helper(proc):\n"
        "    yield from proc.poll()\n"
        "def run_rank(proc):\n"
        "    helper(proc)\n"
        "    yield from proc.compute(1)\n")
    from repro.analysis.flow import run_checks
    findings = run_checks(index)
    assert [f.rule for f in findings] == ["flow-transitive-blocking"]


def test_return_forwarding_counts_as_generator_like():
    index = program_for(
        "def make(proc):\n"
        "    return proc.am.rpc(0, 'x', 1)\n"
        "def run_rank(proc):\n"
        "    yield from make(proc)\n")
    funcs = by_name(index)
    assert funcs["m.make"].gen_like
    from repro.analysis.flow import run_checks
    assert run_checks(index) == []


# -- rank taint -------------------------------------------------------------

def test_param_taint_crosses_the_call_edge():
    source = SourceFile("t.py", (
        "def _maybe_report(proc, leader):\n"
        "    if leader:\n"
        "        yield from _report(proc)\n"
        "def _report(proc):\n"
        "    yield from proc.reduce(1)\n"
        "def run_rank(proc):\n"
        "    is_leader = proc.rank == 0\n"
        "    yield from _maybe_report(proc, is_leader)\n"))
    findings = analyze_program({source.path: source})
    assert [f.rule for f in findings] == ["flow-rank-collective"]
    assert "rank-tainted value" in findings[0].message


def test_local_dataflow_taint_without_rank_in_the_test():
    source = SourceFile("t.py", (
        "def run_rank(proc):\n"
        "    vr = (proc.rank - 1) % proc.n_ranks\n"
        "    half = vr // 2\n"
        "    if half == 0:\n"
        "        yield from proc.barrier()\n"))
    findings = analyze_program({source.path: source})
    assert [f.rule for f in findings] == ["flow-rank-collective"]
    # simlint cannot see this one: the test never mentions 'rank'.
    assert "tainted" in findings[0].message


def test_received_values_are_not_tainted():
    source = SourceFile("t.py", (
        "def run_rank(proc):\n"
        "    total = yield from proc.allreduce(proc.rank)\n"
        "    if total > 4:\n"
        "        yield from proc.barrier()\n"))
    assert analyze_program({source.path: source}) == []


def test_early_return_guard_balances_against_continuation():
    # Both sides reach the barrier exactly once: no finding.
    balanced = SourceFile("t.py", (
        "def run_rank(proc):\n"
        "    if proc.rank == 0:\n"
        "        yield from proc.barrier()\n"
        "        return\n"
        "    yield from proc.barrier()\n"))
    assert analyze_program({balanced.path: balanced}) == []
    # Ranks that exit early never reach the continuation collective.
    unbalanced = SourceFile("t.py", (
        "def run_rank(proc):\n"
        "    if proc.rank > 1:\n"
        "        return\n"
        "    yield from proc.barrier()\n"))
    findings = analyze_program({unbalanced.path: unbalanced})
    assert [f.rule for f in findings] == ["flow-rank-collective"]


def test_balanced_collectives_across_calls_are_exempt():
    assert flow_findings("rank_collective_good.py") == []


# -- suppressions and baseline ----------------------------------------------

def test_flow_findings_honor_inline_suppressions():
    source = SourceFile("t.py", (
        "def _helper(proc):\n"
        "    yield from proc.am.drain()\n"
        "def run_rank(proc):\n"
        "    yield from proc.compute(1)\n"
        "    _helper(proc)  # simlint: disable=flow-transitive-blocking"
        " - spawn pattern\n"))
    assert analyze_program({source.path: source}) == []


def test_cli_deep_exit_codes(tmp_path):
    bad = str(FIXTURES / "transitive_blocking_bad.py")
    good = str(FIXTURES / "transitive_blocking_good.py")
    null = str(tmp_path / "missing.json")
    args = ["--deep", "--baseline", null, "--flow-baseline", null]
    assert main(args + [good]) == 0
    assert main(args + [bad]) == 1
    # Without --deep the defect is invisible (simlint-only view).
    assert main(["--baseline", null, bad]) == 0


def test_cli_deep_write_baseline_round_trip(tmp_path, capsys):
    bad = str(FIXTURES / "rank_collective_bad.py")
    lint_baseline = tmp_path / "lint.json"
    flow_baseline = tmp_path / "flow.json"
    args = ["--deep", "--baseline", str(lint_baseline),
            "--flow-baseline", str(flow_baseline)]
    assert main(args + [bad, "--write-baseline"]) == 0
    written = Baseline.load(flow_baseline)
    assert len(written) == 1
    assert written.entries[0]["rule"] == "flow-rank-collective"
    # With the finding grandfathered the deep gate passes...
    assert main(args + [bad]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out
    # ...and without it, it still fails.
    assert main(["--deep", "--baseline", str(lint_baseline),
                 "--flow-baseline", str(tmp_path / "other.json"),
                 bad]) == 1


def test_cli_list_rules_includes_flow_checks(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in FLOW_RULES:
        assert rule_id in out


# -- SARIF ------------------------------------------------------------------

def test_sarif_output_matches_golden_fixture(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    assert main(["--deep", "--format", "sarif",
                 "--baseline", "/dev/null",
                 "--flow-baseline", "/dev/null",
                 "rank_collective_bad.py"]) == 1
    produced = json.loads(capsys.readouterr().out)
    golden = json.loads(
        (FIXTURES / "expected_rank_collective.sarif.json").read_text())
    assert produced == golden


def test_sarif_clean_run_has_no_results(capsys):
    assert main(["--deep", "--format", "sarif",
                 "--baseline", "/dev/null", "--flow-baseline", "/dev/null",
                 str(FIXTURES / "rank_collective_good.py")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == "2.1.0"
    assert report["runs"][0]["results"] == []
    rule_ids = {r["id"] for r in report["runs"][0]["tool"]["driver"]["rules"]}
    assert set(FLOW_RULES) <= rule_ids


# -- parse cache and perf smoke ---------------------------------------------

def test_parse_cache_shares_one_parse_between_lint_and_flow():
    clear_parse_cache()
    files = list(iter_python_files([SRC]))
    rules = default_rules()
    for path in files:
        analyze_file(path, rules)
    first = parse_cache_stats()
    assert first["misses"] == len(files)
    assert first["hits"] == 0
    # The deep pass re-loads every file: all hits, no re-parse.
    sources = {}
    for path in files:
        source = load_source(path)
        sources[source.path] = source
    second = parse_cache_stats()
    assert second["misses"] == first["misses"]
    assert second["hits"] >= len(files)
    analyze_program(sources)


def test_perf_smoke_full_lint_plus_flow_under_wall_clock_floor():
    clear_parse_cache()
    start = time.perf_counter()
    rules = default_rules()
    sources = {}
    findings = []
    for path in iter_python_files([SRC]):
        source = load_source(path)
        sources[source.path] = source
        findings.extend(analyze_source(source, rules))
    findings.extend(analyze_program(sources))
    elapsed = time.perf_counter() - start
    assert findings == []
    assert elapsed < 30.0, f"lint+flow took {elapsed:.1f}s"


# -- the repo gate ----------------------------------------------------------

def test_src_repro_is_flow_clean():
    """Acceptance: the whole-program analysis runs clean over the
    repo's own sources — no baseline required."""
    sources = {}
    for path in iter_python_files([SRC]):
        source = load_source(path)
        sources[source.path] = source
    assert len(sources) > 60
    assert analyze_program(sources) == []


def test_committed_flow_baseline_is_empty_for_apps():
    """Repo policy: app findings are fixed, never grandfathered — and
    the committed flow baseline is empty outright (the tree the deep
    gate certifies has no live interprocedural defects)."""
    baseline = Baseline.load(REPO_ROOT / "simflow.baseline.json")
    assert [e for e in baseline.entries
            if "apps" in Path(e["path"]).parts] == []
    assert len(baseline) == 0


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
# simflow-motivated restructuring of apps/, gas/ or coll/ must keep
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
    key = RunCache.key_for(run_key_spec(make(), 4, params, knobs, seed=3))
    assert key == pin["key"]
