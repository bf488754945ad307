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
from repro.harness.sweeps import (DIALS, SensitivityFigure, SweepResult,
                                  run_sweep)
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
    # The same file, intact, still predicts, but not against a NaN.
    path.write_text(graph.to_json())
    assert main(["predict", str(path), "--threshold", "nan"]) == 2
    assert "threshold" in capsys.readouterr().err
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
