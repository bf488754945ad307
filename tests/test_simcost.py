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
import gc
import inspect
import io
import json
import math
import pickle
import re
import statistics
import tracemalloc

import numpy as np
import pytest

import repro.cost.predict as predict_module
from repro.am.tuning import TuningKnobs
from repro.apps import Barnes, RadixSort
from repro.cluster.machine import Cluster
from repro.cost import (CostGraph, DepRecorder, PredictedPoint,
                        UnsupportedGraphError, latency_tolerance, lp_bound,
                        predict_runtime, predict_sweep, record_run)
from repro.cost.graph import MARK, REPLY_LIKE, ROW, SEND, TAKES_CREDIT
from repro.harness.runcache import run_key_spec
from repro.harness.experiments import predicted_figure, prediction_errors
from repro.harness.suite import suite_for
from repro.harness.sweeps import (DIALS, MACHINE_DIALS, SensitivityFigure,
                                  SweepResult, run_sweep)
from repro.network.faults import FaultPlan
from tests.test_simcost_equivalence import v1_json


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
    simulated = run_sweep(small_radix(), 4, parameter, values, seed=7).run()
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
    assert all(point.completed for point in sweep.points)  # no sim
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
        "Radix": run_sweep(small_radix(), 4, "overhead", values,
                           seed=7).run()})
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

    # And the baseline is scanned once per graph, not once per search,
    # from lists taken once per search that misses.
    bulky, scans = _counted_scans(bulky, monkeypatch)
    latency_tolerance(bulky, "overhead")
    baseline = scans[0][1]
    assert len({point for _, point in scans}) == len(scans)
    assert all(lists is scans[0][0] for lists, _ in scans)
    del scans[:]
    latency_tolerance(bulky, "bulk_mb_s")
    assert baseline not in [point for _, point in scans]
    assert len({point for _, point in scans}) == len(scans)
    assert all(lists is scans[0][0] for lists, _ in scans)
    del scans[:]
    latency_tolerance(bulky, "bulk_mb_s")
    assert scans == []  # every point a hit: no lists taken


def _counted_scans(graph, monkeypatch):
    """A copy of ``graph``, whose memo is empty, and the ``(lists,
    point)`` of every scan made from now on (the module's ``_scan``
    records each before it scans)."""
    scans, scan = [], predict_module._scan

    def counted(graph, lists, point):
        scans.append((lists, point))
        return scan(graph, lists, point)
    monkeypatch.setattr(predict_module, "_scan", counted)
    return dataclasses.replace(graph), scans


def test_a_dial_value_that_moves_no_edge_cost_is_scanned_once(radix_graph,
                                                              monkeypatch):
    """Radix sends no bulk, so every bulk_mb_s value is the same edge-cost
    point: a sweep scans the graph once, a search after it not at all,
    and both return what they returned when every value was scanned
    (values taken on the commit before).  A value that moves the gap or
    the wire is scanned, once per graph: the baseline the bulk sweep
    scanned is not scanned again."""
    graph, scans = _counted_scans(radix_graph[0], monkeypatch)
    assert graph.program.fragments == ()

    sweep = predict_sweep(graph, "bulk_mb_s")
    assert [point.runtime_us for point in sweep.points] == \
        [2110.0599999999918] * len(DIALS["bulk_mb_s"].grid)
    assert len(scans) == 1
    del scans[:]
    assert latency_tolerance(graph, "bulk_mb_s") is None
    assert len(scans) == 0

    for dial in ("gap", "latency"):
        del scans[:]
        sweep = predict_sweep(graph, dial)
        assert len(scans) == len(DIALS[dial].grid) - 1, dial
        assert len({point.runtime_us for point in sweep.points}) == \
            len(scans) + 1, dial
    del scans[:]
    assert latency_tolerance(graph, "gap") == 13.231250000000001
    assert len(scans) > 1


def test_a_sweep_and_a_search_of_one_dial_scan_the_baseline_once(
        barnes_graph, monkeypatch):
    """The memo lives on the graph: a ``predict_sweep`` and then a
    ``latency_tolerance`` of one dial scan each distinct edge-cost point
    once between them, the baseline included, and return what each
    returns alone on a graph of its own."""
    graph, scans = _counted_scans(barnes_graph[0], monkeypatch)
    sweep = predict_sweep(graph, "overhead")
    crossing = latency_tolerance(graph, "overhead")
    points = [point for _, point in scans]
    assert len(set(points)) == len(points) == len(graph.replays) > 1
    predict_runtime(graph)  # the baseline: scanned by the sweep
    assert len(scans) == len(points)
    alone = dataclasses.replace(graph)
    assert [point.runtime_us for point in sweep.points] == \
        [point.runtime_us for point in predict_sweep(
            alone, "overhead").points]
    assert latency_tolerance(dataclasses.replace(graph), "overhead") == \
        crossing


def test_a_copied_graph_starts_with_an_empty_memo(radix_graph, tmp_path):
    """A pickled or ``save``/``load``ed graph carries no replays: it
    scans for itself and returns the floats the original did."""
    graph, _ = radix_graph
    knobs = [None, TuningKnobs(delta_L=20.0), TuningKnobs(delta_o=5.0)]
    expected = [predict_runtime(graph, point) for point in knobs]
    assert len(graph.replays) >= 3
    path = tmp_path / "radix.graph"
    with path.open("wb") as fh:
        graph.save(fh)
    for copy in (pickle.loads(pickle.dumps(graph)), CostGraph.load(path)):
        assert "replays" not in vars(copy) and copy.replays == {}
        assert [predict_runtime(copy, point) for point in knobs] == \
            expected
        assert len(copy.replays) == 3


@pytest.mark.parametrize("bad, mention", [
    ({"threshold": math.nan}, "threshold"),  # a meaningless crossing
], ids=["threshold=nan"])
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

def _entries(graph):
    """What ``graph.save`` writes, entry by entry, to break one at a
    time."""
    buffer = io.BytesIO()
    graph.save(buffer)
    buffer.seek(0)
    with np.load(buffer) as data:
        return {name: data[name] for name in data.files}


def _write(path, entries):
    """An ``.npz`` of ``entries`` (object arrays pickled, as numpy
    does by default)."""
    with path.open("wb") as fh:
        np.savez(fh, **entries)
    return path


def _with_meta(graph, **changes):
    entries = _entries(graph)
    meta = json.loads(str(entries["meta"]))
    meta.update(changes)
    entries["meta"] = np.array(json.dumps(meta))
    return entries


def _with_rows(graph, rows):
    return dict(_entries(graph), rows=rows)


def _first_send(graph, flag=0):
    """The index of the first send row with ``flag`` (``REPLY_LIKE``,
    ``TAKES_CREDIT``) set."""
    rows = graph.rows
    return int(np.flatnonzero((rows["tag"] == SEND)
                              & (rows["flags"] & flag == flag))[0])


def _changed(graph, index, **fields):
    """``graph``'s rows with row ``index``'s ``fields`` replaced."""
    rows = graph.rows.copy()
    for field, value in fields.items():
        rows[field][index] = value
    return rows


def test_graph_file_round_trip(radix_graph, tmp_path):
    graph, _ = radix_graph
    clone = CostGraph.load(_write(tmp_path / "radix.graph",
                                  _entries(graph)))
    assert [getattr(clone, field.name) for field in
            dataclasses.fields(graph) if field.name != "rows"] == \
        [getattr(graph, field.name) for field in
         dataclasses.fields(graph) if field.name != "rows"]
    assert clone.rows.dtype == ROW and \
        clone.rows.tobytes() == graph.rows.tobytes()
    assert clone.counts() == graph.counts()
    assert predict_runtime(clone) == predict_runtime(graph)


def test_graph_schema_mismatch_refuses(radix_graph, tmp_path):
    graph, _ = radix_graph
    entries = dict(_entries(graph), schema=np.array("repro-cost-graph-v0"))
    with pytest.raises(ValueError, match="schema 'repro-cost-graph-v0'"):
        CostGraph.load(_write(tmp_path / "v0.graph", entries))
    # A v1 graph, one JSON list per row, is refused by its schema name.
    v1 = tmp_path / "v1.graph"
    v1.write_text(v1_json(graph))
    with pytest.raises(ValueError, match="schema 'repro-cost-graph-v1'"):
        CostGraph.load(v1)


class Unpickled(Exception):
    """Raised by unpickling a :class:`Trap`."""


class Trap:
    """An object whose unpickling raises :class:`Unpickled`."""

    def __reduce__(self):
        return (_spring, ())


def _spring():
    raise Unpickled("a graph file was unpickled")


def _malformed_files(graph):
    """``graph``'s file broken one way at a time, as ``(what, write,
    mention)``: ``write(path)`` writes it and ``mention`` is what the
    ``ValueError`` must say."""
    send, n = _first_send(graph), graph.n_nodes

    def rows(**fields):
        return lambda path: _write(path, _with_rows(
            graph, _changed(graph, send, **fields)))

    yield "unknown tag", lambda path: _write(path, _with_rows(
        graph, _changed(graph, 3, tag=9))), "row 3: unknown event row tag"
    yield "rank past the machine", rows(rank=n), f"row {send}: rank {n}"
    yield "negative rank", rows(rank=-1), f"row {send}: rank -1"
    for field, value in (("t", math.nan), ("t", math.inf),
                         ("charge", math.inf), ("blocked", -1.0)):
        yield f"{field}={value}", rows(**{field: value}), \
            f"row {send}: times .* must be finite and non-negative"
    trap = np.array([Trap()], dtype=object)
    yield "rows of another dtype", lambda path: _write(path, _with_rows(
        graph, graph.rows["t"])), "malformed simcost graph"
    yield "rows that would need pickle", lambda path: _write(
        path, _with_rows(graph, trap)), "malformed simcost graph.*pickle"
    yield "a schema that would need pickle", lambda path: _write(
        path, dict(_entries(graph), schema=trap)), "schema None"
    yield "missing entry", lambda path: _write(path, {
        name: entry for name, entry in _entries(graph).items()
        if name != "rows"}), "malformed simcost graph"

    def without_window(path):
        entries = _entries(graph)
        meta = json.loads(str(entries["meta"]))
        del meta["window"]
        entries["meta"] = np.array(json.dumps(meta))
        return _write(path, entries)
    yield "missing key", without_window, "window"
    yield "a pickle", lambda path: path.write_bytes(pickle.dumps(Trap())), \
        "schema None"

    def bare(path):
        with path.open("wb") as fh:
            np.save(fh, graph.rows)
    yield "a bare array", bare, "schema None"

    def flipped(path):
        _write(path, _entries(graph))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # inside the rows entry: a bad CRC
        path.write_bytes(bytes(raw))
    yield "a corrupted entry", flipped, "malformed simcost graph"
    yield "not an object", lambda path: path.write_text("[]"), "schema None"
    yield "invalid JSON", lambda path: path.write_text("{"), "schema None"
    yield "empty", lambda path: path.write_bytes(b""), "schema None"


def test_malformed_graphs_raise_value_error_naming_the_row(radix_graph,
                                                           tmp_path):
    graph, _ = radix_graph
    path = tmp_path / "broken.graph"
    for what, write, mention in _malformed_files(graph):
        write(path)
        with pytest.raises(ValueError, match=mention):
            CostGraph.load(path)
            pytest.fail(f"{what}: loaded")
    # A graph built in-process is checked by its first replay.
    bad = dataclasses.replace(graph, rows=_changed(graph, 9, tag=7))
    with pytest.raises(ValueError, match="row 9"):
        predict_runtime(bad)
    with pytest.raises(ValueError, match="row 9"):
        lp_bound(bad)


#: The pinned Radix graph (5,785 rows), recorded and compiled: its
#: traced peak and what it keeps per row, measured value + 25 %.  At
#: 1.33 MB and 72.7 B a row (55 of them the row itself) since the rows
#: are arrays, packed every ``CHUNK_ROWS`` while recording; 1.90 MB and
#: 293 B a row when rows and program steps were tuples.
GRAPH_PEAK_MB_BUDGET = 1.66
GRAPH_BYTES_PER_ROW_BUDGET = 91.0


def test_a_recorded_graph_stays_within_its_memory_budget():
    """One recording under tracemalloc after a warm-up one, so imports
    and first-call caches are not counted; the graph is kept, its
    program compiled, and the run's result dropped."""
    def record():
        graph, _ = record_run(RadixSort(keys_per_proc=64), 8, seed=11)
        graph.program
        return graph

    record()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        graph = record()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = graph.counts()["events"]
    peak_mb, per_row = (peak - base) / 2 ** 20, (kept - base) / rows
    print(f"\nRadix P=8 graph: traced peak {peak_mb:.2f} MB, kept "
          f"{per_row:.1f} B per row of {rows} (budget "
          f"{GRAPH_PEAK_MB_BUDGET} MB, {GRAPH_BYTES_PER_ROW_BUDGET} B)")
    assert peak_mb <= GRAPH_PEAK_MB_BUDGET
    assert per_row <= GRAPH_BYTES_PER_ROW_BUDGET


def _duplicated(graph, flag):
    index = _first_send(graph, flag)
    return _with_rows(graph, np.insert(graph.rows, index + 1,
                                       graph.rows[index]))


def _stray_return(graph):
    return _with_rows(graph, _changed(graph, _first_send(graph, REPLY_LIKE),
                                      xfer=-7))


@pytest.mark.parametrize("break_graph,mention", [
    (lambda g: _with_meta(g, window=0), "window must be an int >= 1"),
    (lambda g: _with_meta(g, window=-1), "window must be an int >= 1"),
    (lambda g: _with_meta(g, window="8"), "window must be an int >= 1"),
    (lambda g: _with_meta(g, window=1.5), "window must be an int >= 1"),
    (lambda g: _with_meta(g, window_scope="bogus"),
     "unknown window_scope 'bogus'"),
    (lambda g: _duplicated(g, REPLY_LIKE),
     "row {reply_again}: transfer .* holds no credit"),
    (_stray_return, "row {reply}: transfer -7 holds no credit"),
    (lambda g: _duplicated(g, TAKES_CREDIT),
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
    reply = _first_send(graph, REPLY_LIKE)
    request = _first_send(graph, TAKES_CREDIT)
    mention = mention.format(reply=reply, reply_again=reply + 1,
                             request_again=request + 1)
    path = _write(tmp_path / "graph.graph", break_graph(graph))
    with pytest.raises(ValueError, match=mention):
        CostGraph.load(path)
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
    out = tmp_path / "radix.graph"
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
    one line on stderr and exit 2, never a traceback; a file that is no
    v2 graph (a v1 JSON graph included) is named by the schema it
    carries."""
    from repro.cost.cli import main
    graph, _ = radix_graph
    cases = {what: (write, mention)
             for what, write, mention in _malformed_files(graph)}
    cases["v1 JSON graph"] = (lambda path: path.write_text(v1_json(graph)),
                              "schema 'repro-cost-graph-v1'")
    cases["not a graph"] = (lambda path: path.write_text("radix\n"),
                            "schema None")
    cases["schema mismatch"] = (lambda path: _write(path, dict(
        _entries(graph), schema=np.array("repro-cost-graph-v0"))),
        "schema 'repro-cost-graph-v0'")
    cases["recorded under occupancy"] = (  # UnsupportedGraphError
        lambda path: _write(path, _with_meta(graph,
                                             knobs={"delta_occ": 1.0})),
        "occupancy")
    cases["no markers"] = (lambda path: _write(path, _with_rows(
        graph, graph.rows[graph.rows["tag"] != MARK])), "markers")
    path = tmp_path / "radix.graph"
    for what, (write, mention) in cases.items():
        write(path)
        assert main(["predict", str(path)]) == 2, what
        captured = capsys.readouterr()
        assert captured.out == "", what
        assert captured.err.startswith(f"predict: {path}: ") \
            and captured.err.count("\n") == 1, what
        assert re.search(mention, captured.err), what
    assert main(["predict", str(tmp_path / "absent.graph")]) == 2
    assert "absent.graph" in capsys.readouterr().err
    # The same file, intact, still predicts.
    _write(path, _entries(graph))
    assert main(["predict", str(path)]) == 0


def test_cli_usage_errors_exit_2(capsys, tmp_path):
    from repro.cost.cli import main
    for argv in (["predict"],  # missing required graph path
                 # a binary graph has no stdout form
                 ["record", "--app", "Radix"],
                 # simcost is graded by python -m repro.harness's
                 # predict.* rows; the second driver is gone.
                 ["report", "--apps", "Radix", "--no-cache"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2, argv
    err = capsys.readouterr().err
    assert "invalid choice: 'report'" in err
    assert "the following arguments are required: --out" in err
    # An application the suite does not have: one line on stderr, never
    # a traceback.
    assert main(["record", "--app", "Nope",
                 "--out", str(tmp_path / "nope.graph")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("record: ") \
        and captured.err.count("\n") == 1 and "Nope" in captured.err


@pytest.mark.parametrize("argv,why", [
    (["predict", "graph.json", "--values", "abc"], "is not a comma"),
    (["predict", "graph.json", "--values", "2.9,inf"], "finite"),
], ids=["predict-abc", "predict-inf"])
def test_cli_a_bad_values_list_is_a_usage_error(argv, why, capsys):
    """A bad ``--values`` exits 2 before any graph is read or run is
    simulated, never with a traceback."""
    from repro.cost.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"argument --values: {argv[-1]!r}" in last and why in last


@pytest.mark.parametrize("argv, said", [
    (["record", "--app", "Radix", "--nodes", "0"],
     "argument --nodes: must be >= 1, got 0"),
    (["record", "--app", "Radix", "--window", "0"],
     "argument --window: must be >= 1, got 0"),
    (["predict", "graph.json", "--parameter", "bulk_mb_s",
      "--values", "38,0"], "argument --values: bandwidth must be > 0"),
], ids=["record-nodes", "record-window", "predict-values"])
def test_cli_a_machine_it_cannot_build_is_a_usage_error(argv, said,
                                                        capsys):
    """These raised mid-run with a traceback; they exit 2 at parse
    time."""
    from repro.cost.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert said in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["predict", "graph.json", "--threshold", "nan"],
    ["predict", "graph.json", "--threshold", "inf"],
], ids=["threshold-nan", "threshold-inf"])
def test_cli_a_non_finite_gate_is_a_usage_error(argv, capsys):
    """A NaN ``--threshold`` was blamed on the graph file: it exits 2
    at parse time, before anything is read."""
    from repro.cost.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {argv[-2]}: {argv[-1]!r} is not a finite number" \
        in last
