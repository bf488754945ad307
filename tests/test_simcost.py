"""simcost: the recorder observes, the replay predicts.

Three contracts pinned here:

1. **Bit-identity** — recording a run changes nothing about it: same
   ``runtime_us``, same ``events_processed``, same stats dict, and the
   RunCache key space never mentions the recorder (the simsan
   precedent).
2. **Replay fidelity** — re-evaluating the recorded DAG at the
   *recorded* dials reproduces the measured runtime (near-exactly),
   and predicted slowdown curves for dialed grids stay within the 10%
   median-relative-error acceptance gate against real simulations.
3. **Refusal honesty** — regimes the replay model cannot reproduce
   (occupancy dial, faults, open-system apps) are refused loudly,
   never silently mispredicted.
"""

import dataclasses
import inspect
import json
import math
import re
import statistics

import pytest

import repro.cost.predict as predict_module
from repro.am.tuning import TuningKnobs
from repro.apps import Barnes, RadixSort
from repro.cluster.machine import Cluster
from repro.cost import (CostGraph, DepRecorder, PredictedPoint,
                        UnsupportedGraphError, latency_tolerance, lp_bound,
                        predict_runtime, predict_sweep, record_run)
from repro.harness.runcache import run_key_spec
from repro.harness.experiments import predicted_figure, prediction_errors
from repro.harness.suite import suite_for
from repro.harness.sweeps import (DIALS, MACHINE_DIALS, SensitivityFigure,
                                  SweepResult, run_sweep)
from repro.network.faults import FaultPlan


def small_radix():
    return RadixSort(keys_per_proc=32)


def small_barnes():
    return Barnes(bodies_per_proc=4)


@pytest.fixture(scope="module")
def radix_graph():
    graph, result = record_run(small_radix(), 4, seed=7)
    return graph, result


@pytest.fixture(scope="module")
def barnes_graph():
    graph, result = record_run(small_barnes(), 4, seed=7)
    return graph, result


# ---------------------------------------------------------------------------
# 1. Observation-only: recording never perturbs the run.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_app", [small_radix, small_barnes],
                         ids=["radix", "barnes"])
def test_recorded_run_is_bit_identical_to_plain_run(make_app):
    plain = Cluster(n_nodes=4, seed=7).run(make_app())
    recorder = DepRecorder()
    recorded = Cluster(n_nodes=4, seed=7).run(make_app(),
                                              recorder=recorder)
    assert recorded.runtime_us == plain.runtime_us
    assert recorded.events_processed == plain.events_processed
    assert recorded.stats.to_dict() == plain.stats.to_dict()
    assert recorder.graph is not None
    assert recorder.graph.runtime_us == plain.runtime_us


def test_recorder_is_not_part_of_the_cache_key_space():
    """Like sanitize, recording must not fork the cache."""
    assert "recorder" not in inspect.signature(run_key_spec).parameters
    spec = run_key_spec(small_radix(), Cluster(4, seed=7))
    assert "recorder" not in json.dumps(spec)


# ---------------------------------------------------------------------------
# 2. Replay fidelity.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture_name", ["radix_graph", "barnes_graph"])
def test_baseline_replay_matches_measured_runtime(fixture_name, request):
    graph, result = request.getfixturevalue(fixture_name)
    predicted = predict_runtime(graph)
    assert predicted == pytest.approx(result.runtime_us, rel=0.02)


@pytest.mark.parametrize("parameter,values", [
    ("overhead", (2.9, 12.9, 52.9)),
    ("latency", (5.0, 15.0, 55.0)),
], ids=["overhead", "latency"])
def test_predicted_slowdowns_within_error_gate(radix_graph, parameter,
                                               values):
    """Acceptance: median relative error <= 10% on the reduced grid."""
    graph, _ = radix_graph
    predicted = predict_sweep(graph, parameter, values)
    simulated = run_sweep(small_radix(), 4, parameter, values, seed=7)
    errs = [abs(p - s) / s
            for p, s in zip(predicted.slowdowns(), simulated.slowdowns())]
    assert statistics.median(errs) <= 0.10, errs


MONOTONE_SUITE = suite_for(8, scale=0.005)


@pytest.mark.parametrize("app", MONOTONE_SUITE,
                         ids=[app.name for app in MONOTONE_SUITE])
def test_predicted_runtime_never_falls_as_a_dial_slows_the_machine(app):
    """Raising o, g or L, or lowering bulk bandwidth, never shortens a
    predicted runtime: the replay only adds, takes maxima and pops the
    earliest of returns that each grow with the dial.  Every machine
    dial's grid, in the direction that slows the machine, for each
    suite app recorded with a starved and a roomy window in both
    scopes."""
    for window in (1, 8):
        for scope in ("per-destination", "global"):
            graph, _ = record_run(app, 8, seed=5, window=window,
                                  window_scope=scope)
            for parameter in MACHINE_DIALS:
                grid = DIALS[parameter].grid
                slower = sorted(grid, reverse=grid[-1] < grid[0])
                runtimes = [point.runtime_us for point in predict_sweep(
                    graph, parameter, slower).points]
                assert runtimes == sorted(runtimes), (
                    window, scope, parameter, runtimes)


def test_predicted_sweep_via_harness_entry_point(radix_graph):
    graph, _ = radix_graph
    figure = predicted_figure([graph], "overhead", (2.9, 12.9))
    sweep = figure.sweeps[graph.app_name]
    assert isinstance(sweep, SweepResult)
    assert all(isinstance(point, PredictedPoint) for point in sweep.points)
    assert sweep.values() == [2.9, 12.9]
    slow = sweep.slowdowns()
    assert slow[0] == pytest.approx(1.0)
    assert slow[1] > 2.0  # 10 extra us of o each way hurts a 4-node sort
    assert sweep.series() == list(zip(sweep.values(), slow))
    rows = sweep.as_rows()
    assert rows[0]["app"] == sweep.app_name
    assert all(row["failure"] == "" for row in rows)  # never fails: no sim
    assert "(4 nodes, simcost)" in figure.render()


def test_predicted_sweep_reuses_supplied_graph(radix_graph, monkeypatch):
    """The figure is built from the recordings it is handed: predicting
    another dial from the same graphs simulates nothing at all."""
    graph, _ = radix_graph
    monkeypatch.setattr(Cluster, "run", lambda *args, **kwargs: pytest.fail(
        "predicted_figure simulated"))
    figure = predicted_figure([graph], "gap", (5.8, 55.0))
    assert figure.sweeps[graph.app_name].slowdowns()[1] > 1.0


def test_prediction_errors_pair_every_point_once(radix_graph):
    """Relative error and its median, over the points both figures have;
    an application the simulated figure lacks is skipped."""
    graph, _ = radix_graph
    values = (2.9, 12.9, 22.9)
    predicted = predicted_figure([graph], "overhead", values)
    simulated = SensitivityFigure("simulated", "overhead", {
        "Radix": run_sweep(small_radix(), 4, "overhead", values, seed=7)})
    errors = prediction_errors(predicted, simulated)
    pred = predicted.sweeps["Radix"].slowdowns()
    sim = simulated.sweeps["Radix"].slowdowns()
    assert errors.rows == [
        ("Radix", v, s, p, abs(p - s) / s)
        for v, s, p in zip(values, sim, pred)]
    assert errors.median == statistics.median(
        abs(p - s) / s for s, p in zip(sim, pred))
    assert errors.render().splitlines()[2] == \
        "| Radix | 2.9 | 1.00 | 1.00 | 0.0% |"
    assert prediction_errors(predicted, dataclasses.replace(
        simulated, sweeps={})).rows == []


def test_latency_tolerance_and_lp_bound(radix_graph):
    graph, result = radix_graph
    crossing = latency_tolerance(graph, "overhead", threshold=2.0)
    assert crossing is not None and crossing > graph.params.overhead
    # The crossing is self-consistent: replaying at it gives ~2x.
    knobs = DIALS["overhead"].knobs(crossing, graph.params)
    baseline = predict_runtime(graph)
    assert predict_runtime(graph, knobs) / baseline == \
        pytest.approx(2.0, rel=0.02)
    # The LP lower bound never exceeds the critical-path estimate.
    assert lp_bound(graph) <= baseline + 1e-9
    assert lp_bound(graph) > 0.0


@pytest.mark.parametrize("dial", ["drop_rate", "offered_rps", "occupancy"])
def test_only_machine_dials_are_predictable(radix_graph, dial):
    """A dial without a baseline has nothing to cross from, and one
    that moves no knob would predict a flat line: both are refused, by
    naming the dials a recorded run can be re-dialed along."""
    graph, _ = radix_graph
    for refuse in (lambda: latency_tolerance(graph, dial),
                   lambda: predict_sweep(graph, dial, (1.0,)),
                   lambda: predicted_figure([graph], dial)):
        with pytest.raises(ValueError, match="overhead.*bulk_mb_s"):
            refuse()


def test_latency_tolerance_crossings_are_pinned(radix_graph, barnes_graph,
                                                monkeypatch):
    """The search no longer replays the baseline to learn that its
    slowdown is 1.0; the crossings it returns are the ones it returned
    when it did (values taken on the commit before)."""
    graph, _ = radix_graph
    assert {dial: latency_tolerance(graph, dial) for dial in
            ("overhead", "gap", "latency", "bulk_mb_s")} == {
        "overhead": 6.3890625, "gap": 13.231250000000001,
        "latency": 56.25, "bulk_mb_s": None}  # Radix sends no bulk
    assert latency_tolerance(graph, "overhead", threshold=1.5) == \
        4.667187499999999
    assert latency_tolerance(graph, "latency", threshold=1.0) == 5.0
    assert latency_tolerance(graph, "bulk_mb_s", threshold=1.0) == 38.0
    bulky, _ = barnes_graph
    assert {dial: latency_tolerance(bulky, dial) for dial in
            ("overhead", "gap", "latency", "bulk_mb_s")} == {
        "overhead": 8.292187499999999, "gap": 20.481249999999996,
        "latency": 19.84375, "bulk_mb_s": 0.779296875}

    # And the baseline is replayed once per search, not two or three
    # times.
    replayed = []
    replay = predict_module.predict_runtime
    monkeypatch.setattr(
        predict_module, "predict_runtime",
        lambda graph, knobs=None: replayed.append(knobs)
        or replay(graph, knobs))
    for dial in ("overhead", "bulk_mb_s"):
        del replayed[:]
        latency_tolerance(bulky, dial)
        assert replayed.count(TuningKnobs()) == 1, dial


@pytest.mark.parametrize("bad, mention", [
    ({"tol": 0.0}, "tol"),           # bisection cannot reach zero width
    ({"tol": -1.0}, "tol"),          # ... nor a negative one
    ({"tol": math.nan}, "tol"),      # would return the bracket unbisected
    ({"threshold": math.nan}, "threshold"),  # a meaningless crossing
], ids=["tol=0", "tol=-1", "tol=nan", "threshold=nan"])
def test_latency_tolerance_refuses_a_search_it_cannot_end(radix_graph, bad,
                                                          mention):
    graph, _ = radix_graph
    with pytest.raises(ValueError, match=mention):
        latency_tolerance(graph, "overhead", **bad)


def test_predict_sweep_refuses_empty_values(radix_graph):
    graph, _ = radix_graph
    with pytest.raises(ValueError, match="values"):
        predict_sweep(graph, "overhead", [])


# ---------------------------------------------------------------------------
# Graph serialisation.
# ---------------------------------------------------------------------------

def test_graph_json_round_trip(radix_graph):
    graph, _ = radix_graph
    clone = CostGraph.from_json(graph.to_json())
    assert clone.to_dict() == graph.to_dict()
    assert clone.counts() == graph.counts()
    assert predict_runtime(clone) == predict_runtime(graph)


def test_graph_schema_mismatch_refuses(radix_graph):
    graph, _ = radix_graph
    payload = graph.to_dict()
    payload["schema"] = "repro-cost-graph-v0"
    with pytest.raises(ValueError, match="schema"):
        CostGraph.from_dict(payload)


def _malformed_payloads(graph):
    """``graph.to_dict()`` broken one way at a time, with what the
    ``ValueError`` must mention."""
    def broken(index, row):
        payload = graph.to_dict()
        payload["events"][index] = row
        return payload

    send = next(i for i, row in enumerate(graph.rows) if row[0] == "s")
    good = list(graph.rows[send])
    yield "short row", broken(send, ["s", 0, 1.0]), f"row {send}"
    yield "long row", broken(send, good + [0]), f"row {send}"
    yield "unknown tag", broken(3, ["x", 0, 1.0, 0.0, "start"]), "row 3"
    yield "rank past the machine", broken(
        send, good[:1] + [graph.n_nodes] + good[2:]), f"row {send}"
    yield "negative rank", broken(
        send, good[:1] + [-1] + good[2:]), f"row {send}"
    for field in (2, 3, 4):  # t, charge, blocked
        yield f"field {field} not a number", broken(
            send, good[:field] + ["soon"] + good[field + 1:]), f"row {send}"
    yield "row not a list", broken(5, 7), "malformed"
    payload = graph.to_dict()
    del payload["window"]
    yield "missing key", payload, "window"
    yield "not an object", [], "schema"


def test_malformed_graphs_raise_value_error_naming_the_row(radix_graph):
    graph, _ = radix_graph
    for what, payload, mention in _malformed_payloads(graph):
        with pytest.raises(ValueError, match=mention):
            CostGraph.from_dict(payload)
            pytest.fail(f"{what}: loaded")
    # Times the replay would carry into every later event.
    send = next(i for i, row in enumerate(graph.rows) if row[0] == "s")
    for field, value in ((2, math.nan), (2, math.inf), (4, -1.0)):
        payload = graph.to_dict()
        row = list(payload["events"][send])
        payload["events"][send] = row[:field] + [value] + row[field + 1:]
        with pytest.raises(ValueError, match=f"row {send}.*finite and "
                           "non-negative"):
            CostGraph.from_dict(payload)
    # A graph built in-process is checked by its first replay.
    bad = dataclasses.replace(graph, rows=graph.rows[:9] + (("s", 0, 1.0),))
    with pytest.raises(ValueError, match="row 9"):
        predict_runtime(bad)
    with pytest.raises(ValueError, match="row 9"):
        lp_bound(bad)


def _first_send(graph, flag):
    """The index of the first send row with ``flag`` (7 ``reply_like``,
    8 ``takes_credit``) set."""
    return next(i for i, row in enumerate(graph.rows)
                if row[0] == "s" and row[flag])


def _with_row_at(graph, index, row, replaced):
    rows = list(map(list, graph.rows))
    rows[index:index + replaced] = [list(row)]
    return dict(graph.to_dict(), events=rows)


def _duplicated(graph, flag):
    index = _first_send(graph, flag)
    return _with_row_at(graph, index + 1, graph.rows[index], 0)


def _stray_return(graph):
    index = _first_send(graph, 7)
    row = graph.rows[index]
    return _with_row_at(graph, index, row[:5] + (-7,) + row[6:], 1)


@pytest.mark.parametrize("break_graph,mention", [
    (lambda g: dict(g.to_dict(), window=0), "window must be an int >= 1"),
    (lambda g: dict(g.to_dict(), window=-1), "window must be an int >= 1"),
    (lambda g: dict(g.to_dict(), window="8"), "window must be an int >= 1"),
    (lambda g: dict(g.to_dict(), window=1.5), "window must be an int >= 1"),
    (lambda g: dict(g.to_dict(), window_scope="bogus"),
     "unknown window_scope 'bogus'"),
    (lambda g: _duplicated(g, 7),
     "row {reply_again}: transfer .* holds no credit"),
    (_stray_return, "row {reply}: transfer -7 holds no credit"),
    (lambda g: _duplicated(g, 8),
     "row {request_again}: transfer .* takes a second credit"),
], ids=["window=0", "window=-1", "window='8'", "window=1.5",
        "window_scope=bogus", "second-return", "return-never-taken",
        "second-take"])
def test_a_graph_file_with_a_bad_window_or_credit_is_refused(
        radix_graph, tmp_path, capsys, break_graph, mention):
    """The window rules ``Cluster`` and ``AmLayer`` apply, by field
    name, and every credit returned by the transfer that holds it, by
    row index: the compile decides the window, so it refuses what the
    replay could not run (a window of 0 was an ``IndexError``, ``"8"``
    a ``TypeError``; 1.5 and a misspelt scope replayed silently)."""
    from repro.cost.cli import main
    graph, _ = radix_graph
    reply, request = _first_send(graph, 7), _first_send(graph, 8)
    mention = mention.format(reply=reply, reply_again=reply + 1,
                             request_again=request + 1)
    payload = break_graph(graph)
    with pytest.raises(ValueError, match=mention):
        CostGraph.from_dict(payload)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    assert main(["predict", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"predict: {path}: ") \
        and captured.err.count("\n") == 1
    assert re.search(mention, captured.err)


# ---------------------------------------------------------------------------
# 3. Refusal honesty: unsupported regimes fail loudly.
# ---------------------------------------------------------------------------

def test_predict_refuses_occupancy_dial(radix_graph):
    graph, _ = radix_graph
    with pytest.raises(UnsupportedGraphError):
        predict_runtime(graph, TuningKnobs(delta_occ=1.0))


def test_record_refuses_occupancy_dialed_cluster():
    with pytest.raises(ValueError, match="delta_occ"):
        Cluster(n_nodes=4, seed=7,
                knobs=TuningKnobs(delta_occ=1.0)).run(
            small_radix(), recorder=DepRecorder())


def test_record_refuses_a_fault_plan():
    plan = FaultPlan(drop_rate=0.01)
    with pytest.raises(ValueError, match="fault"):
        Cluster(n_nodes=4, seed=7, faults=plan).run(
            small_radix(), recorder=DepRecorder())


def test_record_refuses_open_system_apps():
    """Open-system serving has no closed SPMD dependency DAG to
    replay: arrivals come from outside the rank set, so both recording
    entry points refuse with the honest simcost error."""
    from repro.serve import KVServe
    app = KVServe(offered_rps=50_000.0, n_users=100,
                  duration_us=1_000.0, max_requests=10)
    with pytest.raises(UnsupportedGraphError, match="open-system"):
        record_run(app, 2, seed=0)
    with pytest.raises(UnsupportedGraphError, match="open-system"):
        Cluster(n_nodes=2, seed=0).run(app, recorder=DepRecorder())


def test_recorder_is_single_use(radix_graph):
    recorder = DepRecorder()
    Cluster(n_nodes=4, seed=7).run(small_radix(), recorder=recorder)
    with pytest.raises(RuntimeError):
        Cluster(n_nodes=4, seed=7).run(small_radix(), recorder=recorder)


# ---------------------------------------------------------------------------
# CLI contract: exit 0 / 1 / 2.
# ---------------------------------------------------------------------------

def test_cli_predict_json_payload(tmp_path, capsys):
    from repro.cost.cli import main
    out = tmp_path / "radix.json"
    main(["record", "--app", "Radix", "--nodes", "4", "--scale", "0.05",
          "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert main(["predict", str(out), "--parameter", "overhead",
                 "--values", "2.9,12.9", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-simcost-predict-v1"
    assert payload["simulations_used"] == 0
    assert [p["value"] for p in payload["points"]] == [2.9, 12.9]
    assert payload["points"][0]["slowdown"] == pytest.approx(1.0)


def test_cli_predict_exits_2_on_a_graph_it_cannot_use(tmp_path, capsys,
                                                      radix_graph):
    """Missing, unparsable, malformed and unsupported graph files are
    one line on stderr and exit 2, never a traceback."""
    from repro.cost.cli import main
    graph, _ = radix_graph
    cases = {what: json.dumps(payload)
             for what, payload, _ in _malformed_payloads(graph)}
    cases["invalid JSON"] = "{"
    cases["schema mismatch"] = json.dumps(
        dict(graph.to_dict(), schema="repro-cost-graph-v0"))
    cases["recorded under occupancy"] = json.dumps(  # UnsupportedGraphError
        dict(graph.to_dict(), knobs={"delta_occ": 1.0}))
    cases["no markers"] = json.dumps(dict(graph.to_dict(), events=[]))
    path = tmp_path / "graph.json"
    for what, text in cases.items():
        path.write_text(text)
        assert main(["predict", str(path)]) == 2, what
        captured = capsys.readouterr()
        assert captured.out == "", what
        assert captured.err.startswith("predict: ") \
            and captured.err.count("\n") == 1, what
    assert main(["predict", str(tmp_path / "absent.json")]) == 2
    assert "absent.json" in capsys.readouterr().err
    # The same file, intact, still predicts.
    path.write_text(graph.to_json())
    assert main(["predict", str(path)]) == 0


def test_cli_report_gates_on_median_error(tmp_path, capsys):
    from repro.cost.cli import main
    argv = ["report", "--apps", "Radix", "--nodes", "4", "--scale",
            "0.002", "--seed", "7", "--parameter", "overhead",
            "--values", "2.9,12.9,22.9", "--no-cache",
            "--bench-out", str(tmp_path / "bench.json")]
    assert main(argv + ["--max-median-error", "0.10"]) == 0
    bench = json.loads((tmp_path / "bench.json").read_text())
    assert bench["schema"] == "repro-simcost-bench-v1"
    assert bench["recordings"] == 1
    assert bench["predicted_points"] == 3
    assert bench["simulations_avoided_ratio"] == 3.0
    assert bench["median_rel_err"] <= 0.10
    capsys.readouterr()
    # An impossible gate turns the same report into exit 1.
    assert main(argv + ["--max-median-error", "-1.0"]) == 1


def test_cli_usage_errors_exit_2(capsys):
    from repro.cost.cli import main
    assert main(["report", "--apps", " ", "--no-cache"]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["predict"])  # missing required graph path
    assert excinfo.value.code == 2
    capsys.readouterr()
    # An application the suite does not have: one line on stderr, never
    # a traceback or exit 1 (the gate's code).
    for argv, unknown in ((["report", "--apps", "Radix,Radixx",
                            "--no-cache"], "Radixx"),
                          (["record", "--app", "Nope"], "Nope")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith(f"{argv[0]}: ") \
            and captured.err.count("\n") == 1 and unknown in captured.err


@pytest.mark.parametrize("argv,why", [
    (["predict", "graph.json", "--values", "abc"], "is not a comma"),
    (["predict", "graph.json", "--values", "2.9,inf"], "finite"),
    (["report", "--apps", "Radix", "--values", "2.9,x"], "is not a comma"),
    (["report", "--apps", "Radix", "--values", "2.9,nan"], "finite"),
], ids=["predict-abc", "predict-inf", "report-x", "report-nan"])
def test_cli_a_bad_values_list_is_a_usage_error(argv, why, capsys):
    """A bad ``--values`` exits 2 before any graph is read or run is
    simulated, never 1 (the gate's code) with a traceback."""
    from repro.cost.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"argument --values: {argv[-1]!r}" in last and why in last


@pytest.mark.parametrize("argv", [
    ["predict", "graph.json", "--threshold", "nan"],
    ["predict", "graph.json", "--threshold", "inf"],
    ["report", "--apps", "Radix", "--max-median-error", "nan"],
    ["report", "--apps", "Radix", "--max-median-error", "inf"],
], ids=["threshold-nan", "threshold-inf", "gate-nan", "gate-inf"])
def test_cli_a_non_finite_gate_is_a_usage_error(argv, capsys):
    """A NaN ``--max-median-error`` passed every report (``median >
    nan`` is never true) and a NaN ``--threshold`` was blamed on the
    graph file: both exit 2 at parse time, before anything is read or
    simulated.  A negative gate stays legal: it forces exit 1."""
    from repro.cost.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {argv[-2]}: {argv[-1]!r} is not a finite number" \
        in last
