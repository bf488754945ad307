"""Checks of the ledger itself (``python -m pytest bench/``; not tier-1).

Forks ``run.py`` at ``--quick`` size once per (workload, trace mode) and
checks what it printed against ``BENCHMARK.json``; exercises
``compare.py`` on synthetic result sets and the profile fold on a
synthetic profile.
"""

import cProfile
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


@functools.lru_cache(maxsize=None)
def quick_run(workload: str, trace: int):
    """(stdout lines, parsed result line) of one forked quick run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "13", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line_matches_the_declaration(workload, trace):
    lines, result = quick_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        # Every end-to-end metric is never 0 and is also printed by
        # name with its unit, for a person to read.
        printed = {line.split()[0]: line.split()[-1]
                   for line in lines[1:-1]}
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0
            assert printed[metric["name"]] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_shares_sum_to_one(workload):
    _lines, result = quick_run(workload, 1)
    metrics = result["metrics"]
    shares = [metrics[f"layer.{layer}.share"]["value"]
              for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["trace.overhead_x"]["value"] > 1.0
    leader = max(layers.LAYERS,
                 key=lambda layer: metrics[f"layer.{layer}.share"]["value"])
    assert leader == "sim"
    if workload == "campaign_grid":
        warm = {layer: metrics[f"warm.layer.{layer}.share"]["value"]
                for layer in layers.LAYERS}
        assert sum(warm.values()) == pytest.approx(1.0)
        assert max(warm, key=warm.get) == "harness.runcache"
        assert warm["sim"] == 0.0


def test_runs_leave_no_temp_dir_behind():
    for workload in WORKLOADS:
        quick_run(workload, 0)
    assert not list((HERE / "out").glob("run-*"))


def test_without_the_program_there_is_no_result_line(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ must fail."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite32_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- the scaled clock --------------------------------------------------------

def test_clock_scales_wall_time_and_disarms_its_timer():
    import signal
    clock = yardstick.Clock()

    def spin():
        return sum(range(2_000_000))

    value, scaled_s, wall_s = clock.time(spin)
    assert value == sum(range(2_000_000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # The box is never faster than ten times nominal nor slower than a
    # tenth of it; the point is that both numbers exist and differ.
    assert 0.1 < scaled_s / wall_s < 10.0
    with pytest.raises(ZeroDivisionError):
        clock.time(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- compare.py on synthetic result sets ------------------------------------

def ledger(round_s, msgs_per_s=None, exact=None, failed=0):
    """A one-workload result set with the given per-run values."""
    runs = []
    for index, value in enumerate(round_s):
        metrics = {"round_s": {"value": value, "unit": "s"}}
        if msgs_per_s is not None:
            metrics["sim_msgs_per_s"] = {"value": msgs_per_s[index],
                                         "unit": "msg/s"}
        runs.append({"seed": 13 + index, "attempted": 10, "failed": failed,
                     "metrics": metrics,
                     "exact": {"am.msgs": {"value": exact or 100,
                                           "unit": "count"}},
                     "fingerprints": {"op": "abc"}})
    return {"workloads": {"w": {"runs": runs, "traced": None}}}


TIGHT = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.02, 9.98]
WIDE = [10.0, 13.0, 8.0, 12.0, 9.0, 10.0, 13.5, 7.5, 11.0, 9.5]


def verdicts(base, new, self_mode=False):
    result = compare.compare(base, new, DECLARED, self_mode)
    return ({row["metric"]: row["verdict"] for row in result["rows"]
             if "metric" in row}, result["failures"])


def scaled(values, factor):
    return [value * factor for value in values]


def test_compare_verdicts():
    base = ledger(TIGHT)
    assert verdicts(base, ledger(scaled(TIGHT, 1.2))) == (
        {"round_s": "regressed"}, ["w round_s: regressed"])
    assert verdicts(base, ledger(scaled(TIGHT, 0.8))) == (
        {"round_s": "improved"}, [])
    assert verdicts(base, ledger(scaled(TIGHT, 1.003))) == (
        {"round_s": "unchanged"}, [])
    # Within the bound by medians, but the spread hides the answer.
    wide = ledger(WIDE)
    found, failures = verdicts(wide, ledger(scaled(WIDE[::-1], 1.02)))
    assert found == {"round_s": "unresolved"} and not failures
    _found, failures = verdicts(wide, ledger(scaled(WIDE[::-1], 1.02)),
                                self_mode=True)
    assert failures == ["w round_s: unresolved"]


def test_compare_knows_which_way_is_better():
    rate = scaled(TIGHT, 1000.0)
    base = ledger(TIGHT, msgs_per_s=rate)
    found, failures = verdicts(
        base, ledger(TIGHT, msgs_per_s=scaled(rate, 0.8)))
    assert found["sim_msgs_per_s"] == "regressed" and failures
    found, failures = verdicts(
        base, ledger(TIGHT, msgs_per_s=scaled(rate, 1.25)))
    assert found["sim_msgs_per_s"] == "improved" and not failures


def test_compare_exact_counts_and_failures():
    base = ledger(TIGHT)
    moved = ledger(TIGHT, exact=101)
    assert not verdicts(base, moved)[1]
    failures = verdicts(base, moved, self_mode=True)[1]
    assert len(failures) == len(TIGHT) and "am.msgs" in failures[0]
    failures = verdicts(base, ledger(TIGHT, failed=1))[1]
    assert failures and "failed share" in failures[0]


# -- the profile fold --------------------------------------------------------

def _owned(filename: str, source: str) -> dict:
    """Compile ``source`` as if it lived in ``filename``."""
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def test_fold_charges_builtin_time_to_its_caller():
    source = """
def work(data, times):
    for _ in range(times):
        sorted(data)              # a C builtin two layers share
"""
    a, b = _owned("/layers/a.py", source), _owned("/layers/b.py", source)
    c = _owned("/layers/c.py", """
import json
def work(data):
    json.dumps(data)              # stdlib Python, then the C encoder
""")
    data = [(index * 7919) % 100_003 for index in range(100_000)]
    profile = cProfile.Profile()

    def root():
        a["work"](data, 1)
        b["work"](data, 9)
        c["work"](data)

    profile.runcall(root)
    entries = profile.getstats()
    owner = {"/layers/a.py": "a", "/layers/b.py": "b", "/layers/c.py": "c"}
    folded = layers.fold(entries, owner.get)
    # Every profiled second is charged exactly once ...
    assert sum(folded.values()) == pytest.approx(
        sum(entry.inlinetime for entry in entries))
    # ... the builtins' time to whoever called them (this test's own
    # root() frame is all that is left for "other") ...
    assert folded["other"] < 0.02 * sum(folded.values())
    own = {entry.code.co_filename: entry.inlinetime for entry in entries
           if not isinstance(entry.code, str)
           and entry.code.co_filename in owner}
    for layer_file, layer in owner.items():
        assert folded[layer] > 10 * own[layer_file]
    # ... and a shared builtin's time split by caller: b made nine of
    # the ten sorted() calls.
    assert 5 < folded["b"] / folded["a"] < 15
