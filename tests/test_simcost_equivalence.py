"""Differential equivalence: simcost on arrays vs. the objects and the
loop it replaced.

``DepRecorder`` appends one tuple per event, ``CostGraph`` holds them
as one structured array, and ``predict_runtime`` scans lists taken from
a program compiled from it once per graph.  Before that the recorder
built one ``DepEvent`` per event, the graph stored the objects (as JSON
rows on disk), and every replay resolved its dict keys, fragment lists
and busy times again.  That code lives on here, in the role
``LegacyNic`` and ``NumpyStats`` play for their fast paths:
:class:`DepEvent`, :class:`LegacyRecorder`, :func:`to_row`,
:func:`reference_predict_runtime` and :func:`reference_lp_bound`,
reading :func:`events_of` a graph.  The replay does the same IEEE
operations in the same order, so every comparison below is ``==`` on
floats, never ``approx``.
"""

import cProfile
import dataclasses
import gc
import json
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.am.tuning import DialedCost, TuningKnobs
from repro.apps import RadixSort
from repro.cluster.machine import Cluster
from repro.cost import (CostGraph, DepRecorder, UnsupportedGraphError,
                        lp_bound, predict_runtime, record_run)
from repro.cost.graph import (BULK, MARK, ONE_WAY, RECV, REPLY_LIKE, SEND,
                              TAKES_CREDIT)
from repro.harness.suite import suite_for
from repro.harness.sweeps import DIALS, MACHINE_DIALS
from repro.network.packet import PacketKind, fragment_sizes
from tests.test_nic_tx_equivalence import SCRIPTS, Scripted

WINDOWS = (1, 2, 8)  # 1 forces the credit-min path on every request
SCOPES = ("per-destination", "global")


# ---------------------------------------------------------------------------
# The reference: one DepEvent per event, one full resolution per replay.
# ---------------------------------------------------------------------------

@dataclass
class DepEvent:
    """One node of the dependency DAG, as the recorder once built it."""

    #: ``"send"`` | ``"recv"`` | ``"mark"``.
    kind: str
    rank: int
    t: float
    charge: float = 0.0
    blocked: float = 0.0
    xfer: int = -1
    peer: int = -1
    reply_like: bool = False
    takes_credit: bool = False
    one_way: bool = False
    bulk: bool = False
    nbytes: int = 0
    frags: int = 1
    label: str = ""


def events_of(graph):
    """The graph's rows decoded into the objects the old recorder built
    (what ``graph.events`` returned)."""
    labels = {1: "start", 2: "stop"}
    events = []
    for (tag, rank, t, charge, blocked, xfer, peer, flags, nbytes, frags,
         label) in graph.rows.tolist():
        if tag == MARK:
            events.append(DepEvent(kind="mark", rank=rank, t=t,
                                   blocked=blocked, label=labels[label]))
        elif tag == RECV:
            events.append(DepEvent(
                kind="recv", rank=rank, t=t, charge=charge,
                blocked=blocked, xfer=xfer, peer=peer,
                reply_like=bool(flags & REPLY_LIKE)))
        else:
            assert tag == SEND, tag
            events.append(DepEvent(
                kind="send", rank=rank, t=t, charge=charge,
                blocked=blocked, xfer=xfer, peer=peer,
                reply_like=bool(flags & REPLY_LIKE),
                takes_credit=bool(flags & TAKES_CREDIT),
                one_way=bool(flags & ONE_WAY), bulk=bool(flags & BULK),
                nbytes=nbytes, frags=frags))
    return events


def to_row(event):
    """``DepEvent.to_row`` as it was: one row of a v1 graph file."""
    if event.kind == "mark":
        return ["m", event.rank, event.t, event.blocked, event.label]
    if event.kind == "recv":
        return ["r", event.rank, event.t, event.charge, event.blocked,
                event.xfer, event.peer, int(event.reply_like)]
    return ["s", event.rank, event.t, event.charge, event.blocked,
            event.xfer, event.peer, int(event.reply_like),
            int(event.takes_credit), int(event.one_way),
            int(event.bulk), event.nbytes, event.frags]


def v1_json(graph):
    """The graph as ``CostGraph.to_json`` rendered it in schema v1."""
    return json.dumps({
        "schema": "repro-cost-graph-v1",
        "app_name": graph.app_name,
        "n_nodes": graph.n_nodes,
        "params": dataclasses.asdict(graph.params),
        "knobs": dataclasses.asdict(graph.knobs),
        "window": graph.window,
        "window_scope": graph.window_scope,
        "seed": graph.seed,
        "runtime_us": graph.runtime_us,
        "events": [to_row(event) for event in events_of(graph)],
    })


class LegacyRecorder:
    """``DepRecorder``'s hooks as they were: a dataclass per event."""

    def __init__(self):
        self.events = []
        self._blocked = {}

    def _take_blocked(self, rank):
        return self._blocked.pop(rank, 0.0)

    def on_send(self, rank, packet, now, charge):
        reply_like = packet.kind is PacketKind.REPLY or packet.is_reply
        bulk = packet.is_bulk
        if bulk:
            nbytes = packet.message_bytes \
                if packet.message_bytes is not None else packet.size_bytes
            frags = packet.fragment[1]
        else:
            nbytes = packet.size_bytes
            frags = 1
        self.events.append(DepEvent(
            kind="send", rank=rank, t=now, charge=charge,
            blocked=self._take_blocked(rank), xfer=packet.xfer_id,
            peer=packet.dst, reply_like=reply_like,
            takes_credit=not reply_like, one_way=packet.one_way,
            bulk=bulk, nbytes=nbytes, frags=frags))

    def on_recv(self, rank, packet, now, charge):
        reply_like = packet.kind is PacketKind.REPLY or packet.is_reply
        self.events.append(DepEvent(
            kind="recv", rank=rank, t=now, charge=charge,
            blocked=self._take_blocked(rank), xfer=packet.xfer_id,
            peer=packet.src, reply_like=reply_like))

    def on_blocked(self, rank, duration):
        if duration > 0:
            self._blocked[rank] = self._blocked.get(rank, 0.0) + duration

    def on_mark(self, rank, label, now):
        self.events.append(DepEvent(
            kind="mark", rank=rank, t=now,
            blocked=self._take_blocked(rank), label=label))


class Tee(DepRecorder):
    """One run, both recorders: transfer ids come from a process-wide
    counter, so two runs never record the same ones.  The old hooks
    were handed the time and the charge by the AM layer; here they get
    the clock's reading and the layer's expression for the charge."""

    def __init__(self):
        super().__init__()
        self.legacy = LegacyRecorder()

    def on_send(self, rank, packet):
        machine = self._cluster
        self.legacy.on_send(
            rank, packet, self._sim.now,
            machine.params.send_overhead + machine.knobs.delta_o)
        super().on_send(rank, packet)

    def on_recv(self, rank, packet):
        machine = self._cluster
        self.legacy.on_recv(
            rank, packet, self._sim.now,
            machine.params.recv_overhead + machine.knobs.delta_o)
        super().on_recv(rank, packet)

    def on_blocked(self, rank, duration):
        self.legacy.on_blocked(rank, duration)
        super().on_blocked(rank, duration)

    def on_mark(self, rank, label):
        self.legacy.on_mark(rank, label, self._sim.now)
        super().on_mark(rank, label)


def reference_predict_runtime(graph, events, knobs=None):
    """``predict_runtime`` as it was, over decoded events."""
    knobs = knobs if knobs is not None else graph.knobs
    cost = DialedCost(graph.params, knobs)
    window = graph.window
    per_dest = graph.window_scope == "per-destination"

    clock = {}
    last_t = {}
    nic_free = {}
    delivery = {}
    credit_return = {}
    outstanding = {}

    t_start = None
    t_stop = None

    for event in events:
        rank = event.rank
        busy = max(0.0, (event.t - last_t.get(rank, 0.0))
                   - event.blocked - event.charge)
        last_t[rank] = event.t
        ready = clock.get(rank, 0.0) + busy

        if event.kind == "mark":
            clock[rank] = ready
            if event.label == "start":
                t_start = ready
            elif event.label == "stop":
                t_stop = ready
            continue

        if event.kind == "recv":
            arrived = delivery.get((event.xfer, event.reply_like))
            if arrived is not None and arrived > ready:
                ready = arrived
            clock[rank] = ready + cost.recv_charge
            continue

        if event.takes_credit:
            key = (rank, event.peer if per_dest else -1)
            slots = outstanding.setdefault(key, [])
            if len(slots) >= window:
                best_i = -1
                best_rt = 0.0
                for i, xfer in enumerate(slots):
                    rt = credit_return.get(xfer)
                    if rt is not None and (best_i < 0 or rt < best_rt):
                        best_i, best_rt = i, rt
                if best_i >= 0:
                    slots.pop(best_i)
                    if best_rt > ready:
                        ready = best_rt
                else:
                    slots.pop(0)
            slots.append(event.xfer)
        done = ready + cost.send_charge
        clock[rank] = done

        free = nic_free.get(rank, 0.0)
        arrival = done
        if event.bulk:
            for size in fragment_sizes(event.nbytes):
                pre, stall = cost.tx_cycle(size, True)
                inject = max(done, free) + pre
                free = inject + stall
                arrival = inject + cost.wire
        else:
            pre, stall = cost.tx_cycle(event.nbytes, False)
            inject = max(done, free) + pre
            free = inject + stall
            arrival = inject + cost.wire
        nic_free[rank] = free

        delivery[(event.xfer, event.reply_like)] = arrival
        if event.reply_like:
            credit_return[event.xfer] = arrival
        elif event.one_way:
            credit_return[event.xfer] = arrival + cost.wire

    if t_start is None or t_stop is None:
        raise UnsupportedGraphError("graph has no measurement markers")
    return t_stop - t_start


def reference_lp_bound(graph, events, knobs=None):
    """``lp_bound`` as it was, over decoded events."""
    knobs = knobs if knobs is not None else graph.knobs
    cost = DialedCost(graph.params, knobs)
    marks = {e.label: e.t for e in events if e.kind == "mark"}
    t0, t1 = marks["start"], marks["stop"]

    host = {}
    nic = {}
    last_t = {}
    for event in events:
        rank = event.rank
        busy = max(0.0, (event.t - last_t.get(rank, 0.0))
                   - event.blocked - event.charge)
        last_t[rank] = event.t
        if not (t0 < event.t <= t1):
            continue
        host[rank] = host.get(rank, 0.0) + busy
        if event.kind == "recv":
            host[rank] += cost.recv_charge
        elif event.kind == "send":
            host[rank] += cost.send_charge
            if event.bulk:
                work = sum(sum(cost.tx_cycle(size, True))
                           for size in fragment_sizes(event.nbytes))
            else:
                work = sum(cost.tx_cycle(event.nbytes, False))
            nic[rank] = nic.get(rank, 0.0) + work
    bounds = list(host.values()) + list(nic.values())
    return max(bounds) if bounds else 0.0


def grid_points(graph):
    """Every knob point of the four reduced dial grids."""
    for dial in MACHINE_DIALS:
        for value in DIALS[dial].reduced:
            yield DIALS[dial].knobs(value, graph.params)


def assert_replays_alike(graph, points):
    events = events_of(graph)
    for knobs in points:
        assert predict_runtime(graph, knobs) == \
            reference_predict_runtime(graph, events, knobs), knobs
    assert lp_bound(graph) == reference_lp_bound(graph, events)


# ---------------------------------------------------------------------------
# (i) The suite: bulk, one-way and reply traffic; full and starved windows.
# ---------------------------------------------------------------------------

SUITE = suite_for(8, scale=0.005)


@pytest.mark.parametrize("app", SUITE, ids=[app.name for app in SUITE])
def test_suite_apps_replay_bit_identically(app):
    for window in WINDOWS:
        for scope in SCOPES:
            graph, _ = record_run(app, 8, seed=5, window=window,
                                  window_scope=scope)
            assert_replays_alike(graph, grid_points(graph))


# ---------------------------------------------------------------------------
# (ii) Random SPMD programs at random dial points.
# ---------------------------------------------------------------------------

DIAL = st.sampled_from([0.0, 0.5, 2.9, 10.0, 100.0])
POINTS = st.lists(st.builds(TuningKnobs, delta_o=DIAL, delta_g=DIAL,
                            delta_L=DIAL, delta_G=DIAL),
                  min_size=1, max_size=3)


@given(script=SCRIPTS, n_nodes=st.integers(2, 4),
       window=st.sampled_from(WINDOWS), scope=st.sampled_from(SCOPES),
       points=POINTS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_scripted_programs_replay_bit_identically(script, n_nodes, window,
                                                  scope, points):
    graph, _ = record_run(Scripted(script), n_nodes, seed=9, window=window,
                          window_scope=scope)
    assert_replays_alike(graph, [None] + points)


# ---------------------------------------------------------------------------
# (iii), (iv) and the cache: round trips, second replays, rebuilt graphs.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def barnes_graph():
    # Bulk and short traffic, and a window of 2 that fills.
    return record_run(SUITE[4], 8, seed=5, window=2)[0]


def test_round_tripped_graph_replays_bit_identically(barnes_graph,
                                                     tmp_path):
    path = tmp_path / "barnes.graph"
    with path.open("wb") as fh:
        barnes_graph.save(fh)
    clone = CostGraph.load(path)
    assert clone.rows.tobytes() == barnes_graph.rows.tobytes()
    assert v1_json(clone) == v1_json(barnes_graph)
    assert_replays_alike(clone, grid_points(clone))


def test_a_replay_leaves_the_cached_program_as_it_found_it(barnes_graph):
    points = list(grid_points(barnes_graph))
    first = [predict_runtime(barnes_graph, knobs) for knobs in points]
    program = barnes_graph.program
    snapshot = [part.copy() if isinstance(part, np.ndarray) else part
                for part in program]
    assert barnes_graph.program is program  # compiled once
    again = [predict_runtime(barnes_graph, knobs)
             for knobs in reversed(points)]
    assert again == first[::-1]
    for part, was in zip(program, snapshot):
        if isinstance(part, np.ndarray):
            assert np.array_equal(part, was) and not part.flags.writeable
        else:
            assert part == was
    assert_replays_alike(barnes_graph, points)


def test_recorded_rows_are_what_the_dataclass_path_wrote():
    """Same run, both recorders: decoding the arrays gives the objects
    the old recorder built, and the v1 rows rendered from them are byte
    for byte what ``[event.to_row() for event in events]`` produced."""
    for app in (SUITE[0], SUITE[4], SUITE[8]):  # Radix, Barnes, NOW-sort
        tee = Tee()
        Cluster(8, seed=5).run(app, recorder=tee)
        graph = tee.graph
        assert events_of(graph) == tee.legacy.events
        assert json.loads(v1_json(graph))["events"] == \
            json.loads(json.dumps([to_row(event)
                                   for event in tee.legacy.events]))


def test_a_sealed_graph_cannot_serve_a_stale_program(barnes_graph):
    """The program is cached on the instance, so the instance is
    frozen, rows included; a rebuilt graph compiles its own."""
    graph = barnes_graph
    knobs = TuningKnobs(delta_L=50.0)
    before = predict_runtime(graph, knobs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.window_scope = "global"
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.rows = ()
    with pytest.raises(ValueError, match="read-only"):
        graph.rows[0] = graph.rows[1]
    with pytest.raises(ValueError, match="read-only"):
        graph.rows["t"][0] = 0.0
    # A list or a writeable array handed to the constructor is copied,
    # not adopted; a read-only one is shared, since nothing can write
    # through it; a pickled copy (a pool worker's) is sealed too.
    rows, array = graph.rows.tolist(), graph.rows.copy()
    for handed in (rows, array):
        copy = dataclasses.replace(graph, rows=handed)
        assert copy.rows.tobytes() == graph.rows.tobytes()
        assert copy.program is not graph.program
        assert predict_runtime(copy, knobs) == before
    rows.clear()
    array["t"] = 0.0
    assert copy.rows.tobytes() == graph.rows.tobytes()
    assert dataclasses.replace(graph, rows=graph.rows).rows is graph.rows
    with pytest.raises(ValueError, match="read-only"):
        pickle.loads(pickle.dumps(graph)).rows["t"][0] = 0.0

    marks = graph.rows[graph.rows["tag"] == MARK]
    for change in ({"window_scope": "global"}, {"window": 1},
                   {"rows": np.concatenate(
                       [graph.rows[:len(graph.rows) // 2], marks[1:]])}):
        rebuilt = dataclasses.replace(graph, **change)
        assert "program" not in vars(rebuilt)
        expected = reference_predict_runtime(rebuilt, events_of(rebuilt),
                                             knobs)
        assert predict_runtime(rebuilt, knobs) == expected
        assert expected != before
    assert predict_runtime(graph, knobs) == before


def test_a_full_window_with_no_known_return_drops_its_oldest_credit():
    """Rank 0 sends two requests through a window of one before either
    reply is recorded, as a re-scoped or truncated graph can.  The
    second finds its window full with no known return to wait for: the
    first's credit is dropped (the old loop's ``pop(0)``) and its reply
    frees nothing, so the third request waits for the second's reply."""
    def send(rank, t, xfer, peer, reply):
        return (SEND, rank, t, 2.9, 0.0, xfer, peer,
                REPLY_LIKE if reply else TAKES_CREDIT, 16, 1, 0)

    def recv(rank, t, xfer, peer, reply):
        return (RECV, rank, t, 2.9, 0.0, xfer, peer,
                REPLY_LIKE if reply else 0, 0, 1, 0)

    def mark(t, label):
        return (MARK, 0, t, 0.0, 0.0, -1, -1, 0, 0, 1, label)

    rows = [mark(0.0, 1),
            send(0, 3.0, 1, 1, 0), send(0, 6.0, 2, 1, 0),
            recv(1, 20.0, 1, 0, 0), send(1, 23.0, 1, 0, 1),
            recv(1, 26.0, 2, 0, 0), send(1, 29.0, 2, 0, 1),
            recv(0, 40.0, 1, 1, 1), recv(0, 43.0, 2, 1, 1),
            send(0, 46.0, 3, 1, 0), mark(50.0, 2)]
    graph = CostGraph(app_name="drop", n_nodes=2,
                      params=Cluster(2).params, knobs=TuningKnobs(),
                      window=1, window_scope="per-destination", seed=0,
                      runtime_us=50.0, rows=rows)
    program = graph.program
    assert program.n_windows == 1
    assert program.a[2] == -1              # full, nothing known: no wait
    # Sends 2 and 3 (rows 4 and 6) are the replies.
    assert (program.back[2], program.returns[2]) == (-1, 0)  # dropped
    assert (program.back[3], program.returns[3]) == (0, 1)   # window 0
    assert program.a[9] == 0               # waits there
    assert_replays_alike(graph, [None, TuningKnobs(delta_L=40.0),
                                 TuningKnobs(delta_o=10.0)])


# ---------------------------------------------------------------------------
# The count the compile bought, so the loop cannot grow back.
# ---------------------------------------------------------------------------

#: Calls per replayed event allowed on the pinned Radix graph.
CALLS_PER_EVENT_BUDGET = 1.0


def test_replay_calls_per_event_within_budget():
    """Every call cProfile sees (Python and builtin) during one
    ``predict_runtime`` of a compiled graph, over the events replayed.
    45,174 calls for 5,785 events, 7.81 per event, when each replay
    read thirteen attributes of a ``DepEvent``, looked three dicts up by
    tuple keys and called ``tx_cycle`` per send; 3,903 calls, 0.67 per
    event, when each of the 1,448 credit-taking sends kept an
    outstanding list (``len`` and ``append`` each, 1,000 ``pop``s from
    full windows); 2,455 calls, 0.42 per event, since the compile
    decides which sends wait: what is left is one ``heappush`` per
    returned credit (1,448) and one ``heappop`` per waiting send
    (1,000).  No timing
    enters: the count is a function of the seed and repeats exactly,
    also across ``PYTHONHASHSEED`` values (CI runs this test under two
    and prints it).  The first replay compiles and goes unprofiled."""
    graph, _ = record_run(RadixSort(keys_per_proc=64), 8, seed=11)
    events = graph.counts()["events"]
    assert events == 5785
    predict_runtime(graph)
    profile = cProfile.Profile()
    gc.disable()
    try:
        profile.runcall(predict_runtime, graph, TuningKnobs(delta_o=10.0))
    finally:
        gc.enable()
    calls = sum(entry.callcount for entry in profile.getstats())
    print(f"Radix P=8: {calls} calls / {events} events = "
          f"{calls / events:.2f} calls per replayed event")
    assert calls / events <= CALLS_PER_EVENT_BUDGET
