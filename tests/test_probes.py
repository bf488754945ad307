"""The observation bus: resolution, liveness, composition, attribution.

``repro.instruments.probes.HOOKS`` is the list of instants a run lets
an observer see; ``Probes`` resolves subscribers onto it once per run.
``Cluster.run`` subscribes whatever it is handed as ``tracer=`` by its
``on_*`` methods, which is how the whole-cluster tests below attach a
listener of their own.
"""

import hashlib
import inspect
import itertools
import json

import pytest

import repro.network.packet as packet_module
from repro.am.layer import AmLayer, HandlerTable
from repro.apps import Barnes, RadixSort, default_suite
from repro.apps.base import Application
from repro.cluster.machine import Cluster
from repro.coll.bench import CollectiveBench
from repro.cost import DepRecorder
from repro.gas.runtime import Proc
from repro.instruments import MessageTracer
from repro.instruments.probes import HOOKS, Probes
from repro.network.faults import FaultPlan
from repro.network.nic import Nic
from repro.network.wire import Wire
from repro.serve import KVServe
from tests.helpers import Fabric
from tests.test_sanitizer import fixture_app


# ---------------------------------------------------------------------------
# Resolution: None, the bound method itself, or a fan-out in order.
# ---------------------------------------------------------------------------

class _Listener:
    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def on_send(self, rank, packet):
        self.log.append((self.tag, "send", rank, packet))


class _Marker(_Listener):
    def on_mark(self, rank, label):
        self.log.append((self.tag, "mark", rank, label))


def test_no_subscribers_leaves_every_slot_empty():
    probes = Probes()
    assert [getattr(probes, hook) for hook in HOOKS] == [None] * len(HOOKS)


def test_one_subscriber_is_called_directly():
    listener = _Marker([], "only")
    probes = Probes([listener])
    assert probes.send == listener.on_send
    assert probes.mark == listener.on_mark
    assert [hook for hook in HOOKS if getattr(probes, hook) is not None] \
        == ["send", "mark"]


def test_several_subscribers_are_called_in_subscription_order():
    log = []
    probes = Probes([_Listener(log, "a"), _Marker(log, "b"),
                     _Listener(log, "c")])
    probes.send(3, "packet")
    assert log == [("a", "send", 3, "packet"), ("b", "send", 3, "packet"),
                   ("c", "send", 3, "packet")]
    # One listener among several subscribers is still called directly.
    assert probes.mark.__self__.tag == "b"


def test_unknown_hook_rejected():
    """A subscriber cannot listen for an instant no layer fires: the
    mistake ``MessageTracer.record`` used to catch per stage string."""
    class Teleporting(_Listener):
        def on_teleported(self, rank, packet):
            """Never called."""

    with pytest.raises(ValueError) as refusal:
        Probes([_Listener([], "fine"), Teleporting([], "lost")])
    assert "on_teleported" in str(refusal.value)
    assert all(hook in str(refusal.value) for hook in HOOKS)


def test_layer_constructors_take_probes_not_stats():
    """The layers fire hooks; ``Proc`` keeps the run's result record
    and takes its hooks from its am."""
    for layer in (AmLayer, Nic, Wire):
        parameters = inspect.signature(layer).parameters
        assert "probes" in parameters and "stats" not in parameters, layer
    parameters = inspect.signature(Proc).parameters
    assert "stats" in parameters and "probes" not in parameters


# ---------------------------------------------------------------------------
# Liveness: no declared instant is dead.
# ---------------------------------------------------------------------------

class _Everything:
    """Listens on every hook and counts what it hears."""

    def __init__(self):
        self.heard = dict.fromkeys(HOOKS, 0)


def _hearing(hook):
    def listener(self, *args):
        self.heard[hook] += 1
    return listener


for _hook in HOOKS:
    setattr(_Everything, "on_" + _hook, _hearing(_hook))


class _BulkNeighbour(Application):
    """The GAS range operations, which no suite application uses."""

    name = "bulk-neighbour"

    def run_rank(self, proc):
        cells = proc.allocate(4 * proc.n_ranks, name="cells")
        right = (proc.rank + 1) % proc.n_ranks
        yield from proc.bulk_put(cells, 4 * right, [proc.rank] * 4)
        yield from proc.sync()
        yield from proc.barrier()
        values = yield from proc.bulk_get(cells, 4 * right, 4)
        assert list(values) == [proc.rank] * 4


def test_every_hook_fires_somewhere():
    ear = _Everything()
    runs = [
        (Cluster(4, seed=21), Barnes(bodies_per_proc=8, steps=1)),
        (Cluster(4, seed=11, faults=FaultPlan(drop_rate=0.05)),
         RadixSort(keys_per_proc=64)),
        (Cluster(4, seed=3), CollectiveBench("barrier", iterations=2)),
        (Cluster(2, seed=1), _BulkNeighbour()),
    ]
    for cluster, app in runs:
        cluster.run(app, tracer=ear)
    assert [hook for hook in HOOKS if not ear.heard[hook]] == []
    assert ear.heard["begin"] == ear.heard["finish"] == len(runs)
    assert ear.heard["mark"] == 2 * len(runs)
    assert ear.heard["wait_enter"] == ear.heard["wait_exit"]


# ---------------------------------------------------------------------------
# The stream: every hook, its instant and its subject, pinned.
# ---------------------------------------------------------------------------

def _subject(value):
    """What a hook argument stands for, free of object identity: a
    packet by ``(kind, src, dst, size_bytes, fragment)`` (no transfer
    id: those come from a process-wide counter), a GAS array or lock by
    its name."""
    if isinstance(value, packet_module.Packet):
        return (value.kind.value, value.src, value.dst, value.size_bytes,
                value.fragment)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return tuple(_subject(item) for item in value)
    return getattr(value, "name", type(value).__name__)


class _Stream:
    """Every hook as ``(hook, sim.now, subject)``, one list per rank
    (``None`` for the hooks that name no rank first)."""

    def __init__(self):
        self.sim = None
        self.by_rank = {}

    def on_begin(self, sim, cluster, app_name):
        self.sim = sim
        self.by_rank.setdefault(None, []).append(("begin", sim.now,
                                                  app_name))

    def digest(self):
        text = json.dumps(sorted(self.by_rank.items(),
                                 key=lambda item: str(item[0])))
        return hashlib.sha256(text.encode()).hexdigest()


def _streaming(hook):
    def listener(self, *args):
        rank = args[0] if args and type(args[0]) is int else None
        self.by_rank.setdefault(rank, []).append(
            (hook, self.sim.now, _subject(args)))
    return listener


for _hook in HOOKS:
    if _hook != "begin":
        setattr(_Stream, "on_" + _hook, _streaming(_hook))


def test_the_hook_stream_is_the_pinned_one():
    """What each rank's observers see, instant by instant: the suite at
    P = 8 and one serving point.  A hook site may move within a layer
    only if every stream stays as it is."""
    runs = [(app.name, app) for app in default_suite(0.1)]
    runs.append(("kvserve", KVServe(
        offered_rps=200_000.0, n_users=10_000, duration_us=10_000.0,
        max_requests=300, service_us=4.0, key_space=512)))
    got = {}
    for name, app in runs:
        stream = _Stream()
        Cluster(8, seed=13).run(app, tracer=stream)
        got[name] = stream.digest()
    assert got == {
        "Radix":
            "3ea17a4c4e5895465ec915a310f06732eb8b91a3c89b143fd848399c58847f38",
        "EM3D(write)":
            "502ba8c3ae5196428095f53eb34138d625fe5abadfb701012c54d83edf004bf9",
        "EM3D(read)":
            "85d17d888c7fbdb62b71ac1609b5ddd91ee70f8cdeafaba0802c405a9551d48e",
        "Sample":
            "02b5017541a395e28fb54778d98222516e7232d4d2e956a129f4f12c6c93342c",
        "Barnes":
            "ee64c3f0d7d2fb9ff2ea1277e22779acfdc9ec03c857f3ba325b4844a9821435",
        "P-Ray":
            "5b0432670929618e147d196319909c6b2d0ee13e5a3f0535fddd62d6d2d5eb20",
        "Murphi":
            "a0b8308cf730c82f92d300ce4789b0b3d4bed79de192a67af68aa215c088b4b6",
        "Connect":
            "7c577adc23f7dc302be076ca72910a2495366939153a4b029b4c7e3fdca33d90",
        "NOW-sort":
            "0ce6d48357b8b7166f1614af5e2f647274a71261c1c8c6351f16f36ce5ce16fe",
        "Radb":
            "d8006d328fa54d323a3ad248fea3fab833a654daa63c0685c1929665950a4f23",
        "kvserve":
            "1fe2c013db263ae3611a670f2f79884359fd77d6975be6013431784185de395b",
    }


# ---------------------------------------------------------------------------
# Waits: a send that finds a free window slot is no wait at all.
# ---------------------------------------------------------------------------

class _Waits:
    def __init__(self):
        self.entered = []

    def on_wait_enter(self, rank, kind, peers, detail):
        self.entered.append((rank, kind, peers))


def _count(am, packet):
    am.host.state["served"] = am.host.state.get("served", 0) + 1


def _serve(am, expected):
    yield from am.wait_until(
        lambda: am.host.state.get("served", 0) >= expected)


def _fabric(waits, **kwargs):
    table = HandlerTable()
    table.register("count", _count)
    return Fabric(table=table, probes=Probes([waits]), **kwargs)


def test_a_send_with_a_free_slot_enters_no_credit_wait():
    waits = _Waits()
    fabric = _fabric(waits)  # window 8; at most one request outstanding
    ping, pong = fabric.ams

    def pinger():
        for _ in range(20):
            yield from ping.rpc(1, "count")

    fabric.run(pinger(), _serve(pong, 20))
    assert waits.entered == [(0, "reply", (1,))] * 20


def test_each_blocked_send_enters_one_credit_wait_naming_its_peer():
    waits = _Waits()
    fabric = _fabric(waits, n_nodes=3, window=1)
    sender = fabric.ams[0]
    blocked = []

    def burst():
        for index in range(12):
            dst = 1 + index % 2
            blocked.append(sender.credits_for(dst) == 0)
            yield from sender.send_request(dst, "count")
        yield from sender.drain()

    fabric.run(burst(), _serve(fabric.ams[1], 6), _serve(fabric.ams[2], 6))
    assert 0 < sum(blocked) < len(blocked)
    assert [wait for wait in waits.entered if wait[1] == "credit"] == \
        [(0, "credit", (1 + index % 2,))
         for index, was in enumerate(blocked) if was]


# ---------------------------------------------------------------------------
# Composition: every observer at once sees what each sees alone.
# ---------------------------------------------------------------------------

def _observed(monkeypatch, sanitize=False, tracer=False, recorder=False):
    """One Radix run on fresh transfer ids, so that two runs record the
    same ones; returns ``(result, timelines, the graph's row bytes)``."""
    monkeypatch.setattr(packet_module, "_sequence", itertools.count())
    tracer = MessageTracer() if tracer else None
    recorder = DepRecorder() if recorder else None
    result = Cluster(8, seed=11, sanitize=sanitize).run(
        RadixSort(keys_per_proc=64), tracer=tracer, recorder=recorder)
    timelines = tracer and sorted(
        (line.xfer_id, line.src, line.dst, line.kind,
         sorted(line.times.items())) for line in tracer.timelines())
    return result, timelines, recorder and recorder.graph.rows.tobytes()


def test_all_observers_together_see_what_each_sees_alone(monkeypatch):
    plain, _, _ = _observed(monkeypatch)
    together, timelines, graph = _observed(
        monkeypatch, sanitize=True, tracer=True, recorder=True)
    assert (together.runtime_us, together.events_processed,
            together.stats.to_dict()) == \
        (plain.runtime_us, plain.events_processed, plain.stats.to_dict())
    assert graph == _observed(monkeypatch, recorder=True)[2]
    assert timelines and \
        timelines == _observed(monkeypatch, tracer=True)[1]
    alone = _observed(monkeypatch, sanitize=True)[0].sanitizer
    assert together.sanitizer == alone and alone.messages_clocked > 0


# ---------------------------------------------------------------------------
# Attribution: a fan-out's frame is runtime, not application.
# ---------------------------------------------------------------------------

class _AccessCounter:
    def __init__(self):
        self.accesses = 0

    def on_access(self, rank, array, index, kind):
        self.accesses += 1


def test_a_second_access_listener_keeps_the_application_call_site():
    counter = _AccessCounter()
    result = Cluster(8, seed=11, sanitize=True).run(
        fixture_app("racy_put", "RacyPut"), tracer=counter)
    assert counter.accesses == result.sanitizer.accesses_checked == 16
    (race,) = result.sanitizer.races
    assert {race.prior.site, race.access.site} == \
        {"racy_put.py:26", "racy_put.py:27"}
