"""Differential equivalence: the NIC's callback contexts vs. the loops
they replaced.

``Nic`` serves its transmit context (and, under ``delta_occ``, its
receive context) with a callback state machine on the engine's timeout
fast path.  Before that, each context was a generator process parked on
a ``Store``.  The process loops live on here, as :class:`LegacyNic`, in
the role ``Simulator.step`` plays for ``Simulator.run``: the readable
reference the fast path may only be *cheaper* than, never different
from.  Hypothesis drives both with random programs at two levels:

* bare NICs on a fabric, fed by trees of scheduled ``enqueue`` calls
  whose delays are drawn from the contexts' own service times, so
  enqueues land in same-instant bursts and exactly on a stall's end --
  from events scheduled both before and after the stall's own timeout;
* whole clusters running a scripted SPMD application, with every dial,
  packet loss (retransmits re-enter the transmit queue), and tracer /
  sanitizer / recorder attached.

Both must see the identical ``receive_from_wire`` sequence (time and
order), identical host-visible results, and strictly fewer events.
"""

import cProfile
import gc
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.network.nic as nic_module
from repro.am.layer import AmLayer, Reply
from repro.am.tuning import TuningKnobs
from repro.apps import RadixSort
from repro.apps.base import Application
from repro.cluster.machine import Cluster
from repro.cost import DepRecorder
from repro.instruments import MessageTracer
from repro.instruments.probes import Probes
from repro.network.faults import FaultError, FaultInjector, FaultPlan
from repro.network.loggp import LogGPParams
from repro.network.nic import Nic
from repro.network.packet import PacketKind, new_packet, new_xfer_id
from repro.network.wire import Wire
from repro.serve import FanoutServe, KVServe
from repro.sim import Simulator, Store

SIM_SETTINGS = settings(max_examples=60, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# The reference: the process-and-Store contexts, as they were.
# ---------------------------------------------------------------------------

class _StoreFront:
    """What ``Nic`` asks of a context -- ``submit`` and ``pending`` --
    answered by a ``Store``."""

    def __init__(self, store):
        self._store = store

    def submit(self, packet):
        self._store.put(packet)

    @property
    def pending(self):
        return self._store.peek_items()


class LegacyNic(Nic):
    """``Nic`` with each hardware context a process parked on a store."""

    def __init__(self, sim, node_id, *args, **kwargs):
        super().__init__(sim, node_id, *args, **kwargs)
        self._tx_queue = Store(sim, name=f"tx[{node_id}]")
        self._tx = _StoreFront(self._tx_queue)
        if self._rx is not None:
            self._rx_queue = Store(sim, name=f"rx[{node_id}]")
            self._rx = _StoreFront(self._rx_queue)
            sim.process(self._receive_context(), name=f"nic-rx[{node_id}]")
        sim.process(self._transmit_context(), name=f"nic-tx[{node_id}]")

    def _transmit_context(self):
        """The LANai transmit loop: DMA, inject, stall for the gap."""
        while True:
            packet = yield self._tx_queue.get()
            pre_time, stall = self.charge.tx_cycle(
                packet.size_bytes, packet.kind is PacketKind.BULK_FRAGMENT)
            if pre_time > 0:
                yield self.sim.timeout(pre_time)
            if self._on_inject is not None:
                self._on_inject(self.node_id, packet)
            self._inject(packet)
            self.tx_busy_us += pre_time + stall
            if stall > 0:
                yield self.sim.timeout(stall)

    def _receive_context(self):
        """Serial receive-context processing under dialed occupancy."""
        while True:
            packet = yield self._rx_queue.get()
            yield self.sim.timeout(self.knobs.delta_occ)
            self._after_occupancy(packet)


def _recording(base, log, origin):
    """``base`` logging every wire delivery; transfer ids are logged
    relative to ``origin`` (the global counter never rewinds)."""

    class Recording(base):
        def receive_from_wire(self, packet):
            log.append((self.sim.now, self.node_id, packet.kind.value,
                        packet.src, packet.size_bytes, packet.fragment,
                        packet.seq, packet.xfer_id - origin))
            super().receive_from_wire(packet)

    return Recording


def _assert_equivalent(outcome):
    """``outcome(nic_class)`` -> (observables, events_processed or, if
    the run died of a dead link, None)."""
    new_seen, new_events = outcome(Nic)
    old_seen, old_events = outcome(LegacyNic)
    assert new_seen == old_seen
    if new_events is not None:
        assert new_events < old_events


KNOBS = st.builds(
    TuningKnobs,
    delta_o=st.sampled_from([0.0, 5.8]),
    delta_g=st.sampled_from([0.0, 0.0, 5.8, 10.0]),
    delta_L=st.sampled_from([0.0, 0.0, 5.0, 30.0]),
    delta_G=st.sampled_from([0.0, 0.0, 0.01, 0.2]),
    delta_occ=st.sampled_from([0.0, 0.0, 1.5, 5.8]))

#: A reliable wire, or a lossy one.
PLANS = st.one_of(
    st.none(),
    st.builds(lambda rate, timeout: FaultPlan(
        drop_rate=rate, retx_timeout_us=timeout),
        st.sampled_from([0.03, 0.15]), st.sampled_from([40.0, 200.0])))


# ---------------------------------------------------------------------------
# Level 1: bare NICs, trees of scheduled enqueues.
# ---------------------------------------------------------------------------

N_NICS = 3

#: name -> (kind, size_bytes).  "dma" is a full fragment: a long DMA
#: before injection and (undialed) no stall after; "stub" is a fragment
#: whose DMA is shorter than the gap, so it has both.
SHAPES = {"short": (PacketKind.REQUEST, 32),
          "reply": (PacketKind.REPLY, 32),
          "dma": (PacketKind.BULK_FRAGMENT, 4096),
          "stub": (PacketKind.BULK_FRAGMENT, 64)}


def _service_times(nic):
    """The delays a program may wait: the contexts' own service times,
    computed with the very float operations the NIC uses, so a chain
    such as ``(pre:short, stall:short)`` ends exactly on a stall's end."""
    delays = {"zero": 0.0, "latency": nic.params.latency,
              "half-gap": nic.params.gap / 2}
    for shape, (kind, size) in SHAPES.items():
        pre, stall = nic.charge.tx_cycle(
            size, kind is PacketKind.BULK_FRAGMENT)
        delays[f"pre:{shape}"] = pre
        delays[f"stall:{shape}"] = stall
    return delays


DELAY_NAMES = ["zero", "latency", "half-gap"] + [
    f"{phase}:{shape}" for phase in ("pre", "stall") for shape in SHAPES]


def _enqueue_nodes(children):
    """One program node: wait out ``chain`` (one timeout per entry, each
    created when the previous fires), enqueue one packet of ``shape``
    from ``src`` to ``src + hop``, then start the children."""
    return st.tuples(
        st.lists(st.sampled_from(DELAY_NAMES), min_size=1, max_size=3),
        st.integers(0, N_NICS - 1), st.integers(1, N_NICS - 1),
        st.sampled_from(sorted(SHAPES)), children)


PROGRAMS = st.lists(
    st.recursive(_enqueue_nodes(st.just([])),
                 lambda inner: _enqueue_nodes(st.lists(inner, max_size=3)),
                 max_leaves=12),
    min_size=1, max_size=6)


class _TxTotals:
    """Per NIC: packets and bytes injected."""

    def __init__(self):
        self.rows = [[0, 0] for _ in range(N_NICS)]

    def on_inject(self, rank, packet):
        self.rows[rank][0] += 1
        self.rows[rank][1] += packet.size_bytes


def _run_bare(nic_class, program, knobs, plan):
    params = LogGPParams.berkeley_now()
    sim = Simulator()
    wire = Wire(sim, params.latency, injector=plan and
                FaultInjector(plan, seed=5))
    origin = new_xfer_id()
    wire_log, host_log = [], []
    injected = _TxTotals()
    recording = _recording(nic_class, wire_log, origin)
    nics = [recording(
        sim, node, params, knobs, wire,
        lambda p, node=node: host_log.append(
            (sim.now, node, "deliver", p.payload)),
        lambda xfer, node=node: host_log.append(
            (sim.now, node, "credit", xfer - origin)),
        faults=plan, probes=Probes([injected]))
        for node in range(N_NICS)]
    delays = _service_times(nics[0])
    labels = itertools.count()

    def start(node):
        chain, src, hop, shape, children = node

        def advance(_event=None, step=0):
            if step < len(chain):
                sim.timeout(delays[chain[step]]).callbacks.append(
                    lambda event: advance(event, step + 1))
                return
            kind, size = SHAPES[shape]
            nics[src].enqueue(new_packet(
                kind=kind, src=src, dst=(src + hop) % N_NICS,
                size_bytes=size, payload=next(labels),
                one_way=kind is not PacketKind.REPLY))
            host_log.append((sim.now, src, "backlog",
                             nics[src].tx_backlog))
            for child in children:
                start(child)

        advance()

    for root in program:
        start(root)
    try:
        sim.run()
        error = None
    except FaultError as exc:  # a link that dropped max_retries in a row
        error = type(exc).__name__
    totals = [(nic.tx_busy_us, *injected.rows[nic.node_id],
               nic.retransmissions, nic.duplicates_suppressed,
               nic.acks_sent, nic.tx_backlog, nic.delay_queue_depth)
              for nic in nics]
    return ((wire_log, host_log, totals, sim.now, error),
            sim.events_processed)


@given(program=PROGRAMS, knobs=KNOBS, plan=PLANS)
@SIM_SETTINGS
def test_bare_nics_see_identical_deliveries(program, knobs, plan):
    _assert_equivalent(
        lambda nic_class: _run_bare(nic_class, program, knobs, plan))


@pytest.mark.parametrize("second, backlog", [
    # Scheduled up front, so ahead of the stall's own timeout at the
    # same instant: the context is still in service, the packet queues.
    ((["stall:short"], 0, 1, "short", []), 1),
    # Two zero-delay hops first, so its last timeout is created after
    # the first injection made the stall's, and fires behind it: the
    # context has gone idle, the packet goes straight to service.
    ((["zero", "zero", "stall:short"], 0, 1, "short", []), 0),
], ids=["before", "after"])
def test_enqueue_landing_exactly_on_a_stalls_end(second, backlog):
    first = (["zero"], 0, 1, "short", [])
    program = [first, second]
    _assert_equivalent(lambda nic_class: _run_bare(
        nic_class, program, TuningKnobs(), None))
    (wire_log, host_log, _totals, _now, _error), _events = _run_bare(
        Nic, program, TuningKnobs(), None)
    gap = LogGPParams.berkeley_now().gap
    # tx_backlog counts packets queued, not the one in service.
    assert [row for row in host_log if row[2] == "backlog"] == \
        [(0.0, 0, "backlog", 0), (gap, 0, "backlog", backlog)]
    # Either way the second injection is one gap after the first.
    assert [row[0] for row in wire_log if row[2] == "request"] == \
        [5.0, gap + 5.0]


DIAL = [0.0, 2.5, 100.0]


@pytest.mark.parametrize("delta_occ", DIAL)
@pytest.mark.parametrize("delta_G", DIAL)
@pytest.mark.parametrize("delta_g", DIAL)
def test_short_packet_service_times_match_the_methods(delta_g, delta_G,
                                                      delta_occ):
    """Every packet but a bulk fragment takes the run-constant cycle
    ``DialedCost.tx_cycle(0, False)``: injected ``pre`` after its service
    starts, busy ``pre + stall``, the next one served when that ends."""
    sim = Simulator()
    params = LogGPParams.berkeley_now()
    knobs = TuningKnobs(delta_g=delta_g, delta_G=delta_G,
                        delta_occ=delta_occ)
    injected = []

    class Listener:
        def on_inject(self, rank, packet):
            injected.append(sim.now)

    wire = Wire(sim, params.latency)
    nic, _peer = [Nic(sim, node, params, knobs, wire, lambda packet: None,
                      lambda xfer: None, probes=Probes([Listener()]))
                  for node in range(2)]
    kinds = (PacketKind.REQUEST, PacketKind.REPLY, PacketKind.CREDIT)
    for kind in kinds:
        nic.enqueue(new_packet(kind, 0, 1))
    sim.run()
    pre, stall = nic.charge.tx_cycle(0, False)
    expected, now, busy = [], 0.0, 0.0
    for _kind in kinds:
        now += pre
        expected.append(now)
        now += stall
        busy += pre + stall
    assert injected == expected
    assert nic.tx_busy_us == busy


# ---------------------------------------------------------------------------
# Level 2: whole clusters running a scripted SPMD program.
# ---------------------------------------------------------------------------

def _echo(am, packet):
    return packet.payload


def _pull(am, packet):
    return Reply(None, nbytes=packet.payload)


class Scripted(Application):
    """Every rank runs the same op list (so sends collide at the same
    instants); ``skew`` staggers the ranks again."""

    name = "Scripted"

    def __init__(self, script):
        self.script = script

    def register_handlers(self, table):
        table.register("sink", lambda am, packet: None)
        table.register("echo", _echo)
        table.register("pull", _pull)

    def run_rank(self, proc):
        am = proc.am
        for op, arg, hop in self.script:
            dst = (proc.rank + 1 + hop % (proc.n_ranks - 1)) % proc.n_ranks
            if op == "compute":
                yield from proc.compute(arg)
            elif op == "skew":
                yield from proc.compute(arg * proc.rank)
            elif op == "burst":  # past the window of 8: credit stalls
                for _ in range(hop + 7):
                    yield from am.send_oneway(dst, "sink")
            elif op == "fan-in":
                if proc.rank:
                    yield from am.send_oneway(0, "sink")
            elif op == "rpc":
                yield from am.rpc(dst, "echo", payload=arg)
            elif op == "store":
                yield from am.bulk_store_blocking(
                    dst, "sink", None, 1 + int(arg * 900))
            elif op == "get":
                yield from am.bulk_rpc(dst, "pull",
                                       payload=1 + int(arg * 900))
            else:
                yield from proc.barrier()


SCRIPTS = st.lists(
    st.tuples(st.sampled_from(["compute", "skew", "burst", "fan-in", "rpc",
                               "store", "get", "barrier"]),
              # Host times that line up with o, g, 2g and g + o_send.
              st.sampled_from([0.0, 1.8, 4.0, 5.8, 7.6, 11.6, 40.0]),
              st.integers(0, 3)),
    min_size=1, max_size=10)


def _run_cluster(nic_class, script, n_nodes, knobs, plan, observers):
    if plan is not None or knobs.delta_occ > 0:
        observers = observers - {"recorder"}  # simcost refuses these
    tracer = MessageTracer() if "tracer" in observers else None
    recorder = DepRecorder() if "recorder" in observers else None
    origin = new_xfer_id()
    wire_log = []
    with pytest.MonkeyPatch.context() as patch:
        # AmLayer looks the class up at construction time.
        patch.setattr(nic_module, "Nic",
                      _recording(nic_class, wire_log, origin))
        try:
            result = Cluster(n_nodes, knobs=knobs, faults=plan, seed=9,
                             sanitize="sanitize" in observers).run(
                Scripted(script), tracer=tracer, recorder=recorder)
        except FaultError as exc:
            return (wire_log, type(exc).__name__), None
    timelines = tracer and sorted(
        (line.xfer_id - origin, line.src, line.dst, line.kind,
         sorted(line.times.items())) for line in tracer.timelines())
    return ((wire_log, result.runtime_us, result.stats.to_dict(),
             timelines), result.events_processed)


@given(script=SCRIPTS, n_nodes=st.integers(2, 4), knobs=KNOBS, plan=PLANS,
       observers=st.sets(st.sampled_from(["tracer", "sanitize",
                                          "recorder"])))
@SIM_SETTINGS
def test_clusters_run_identically(script, n_nodes, knobs, plan, observers):
    _assert_equivalent(lambda nic_class: _run_cluster(
        nic_class, script, n_nodes, knobs, plan, observers))


@given(script=SCRIPTS, n_nodes=st.integers(2, 4),
       window=st.sampled_from([1, 2, 8]),
       scope=st.sampled_from(["per-destination", "global"]))
@SIM_SETTINGS
def test_drain_predicate_agrees_with_the_credit_walk(script, n_nodes,
                                                     window, scope):
    """``drain()`` waits for ``_credit_owner`` to empty where it used to
    walk every pool's count: one entry per slot still out, so the two
    agree whenever a host evaluates a wait's predicate -- checked at
    every evaluation of every wait, the closing drain's among them."""
    tally = {True: 0, False: 0}
    wait_until = AmLayer.wait_until

    def checking(am, predicate, wait=None):
        def checked():
            walked = all(c == am.window for c in am._credits.values())
            assert (not am._credit_owner) == walked
            tally[walked] += 1
            return predicate()

        return wait_until(am, checked, wait)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AmLayer, "wait_until", checking)
        Cluster(n_nodes, seed=9, window=window,
                window_scope=scope).run(Scripted(script))
    assert tally[True]  # every rank's closing drain ends on it


def test_radix_events_per_message_stays_fused():
    """The count the fusion bought, so it cannot creep back: Radix at
    P=8 took 6.39 events per message on the process loops."""
    result = Cluster(8, seed=11).run(RadixSort(keys_per_proc=64))
    assert result.events_processed / result.stats.total_messages <= 6.0


#: Calls per message allowed on Radix at P=8: 3 % above the 52.39
#: measured since the event loop resumes a process's own wake-up entry
#: itself (decision 0032).
CALLS_PER_MESSAGE_BUDGET = 54.0

#: Calls per request allowed on ``KVServe`` at P=8: 3 % above the 141.07
#: measured since the event loop resumes a process's own wake-up entry
#: itself (decision 0032).
CALLS_PER_REQUEST_BUDGET = 145.4

#: Calls per request allowed on ``FanoutServe`` (``fanout=4``) at P=8:
#: 3 % above the 395.11 measured since the event loop resumes a
#: process's own wake-up entry itself (decision 0032).
FANOUT_CALLS_PER_REQUEST_BUDGET = 407.0


#: The serving point both request budgets run at P=8.
SERVING_KNOBS = dict(offered_rps=200_000.0, n_users=10_000,
                     duration_us=10_000.0, max_requests=300,
                     service_us=4.0, key_space=512)


def _calls_during(run):
    """Every call cProfile sees (Python and builtin) during ``run()``,
    and its result.  The first run pays the lazy imports and goes
    unprofiled; the collector is off because hypothesis, once one of its
    tests has run, hangs a callback on every collection."""
    run()
    profile = cProfile.Profile()
    gc.disable()
    try:
        result = profile.runcall(run)
    finally:
        gc.enable()
    # Not pstats: it files code objects under (file, line, name) and
    # keeps one of those that share a label (every dataclass's generated
    # __init__ is ("<string>", 2, "__init__")).
    return sum(entry.callcount for entry in profile.getstats()), result


def test_radix_calls_per_message_stays_within_budget():
    """The work per event, so that it cannot creep back either: every
    call during one ``Cluster.run``, over the messages sent.  305,580
    calls for 2,851 messages, 107.18 per message, before run constants
    were resolved at construction, slots read for properties and the
    per-message counters kept in lists; 255,838 calls, 89.74 per
    message, after that; 200,029 calls, 70.16 per message, since NIC,
    wire and host charges are bare heap entries (no ``Timeout``, no
    callback list); 173,435 calls, 60.83 per message, since a host wait
    is one service-loop frame parked on a ``Park`` and the clock is an
    attribute; 172,401 calls, 60.47 per message, since a handler is a
    plain function whose return value is its reply (Radix answers with
    automatic acks only, so its messages do not move; the 64 calls more
    than the collective layer's fold left, 172,337, are ``register``
    refusing generator functions); 162,186 calls, 56.89 per message,
    since ``Packet`` is a slotted class with one ``__init__``, the wire
    schedules ``receive_from_wire`` itself, a short packet is injected
    in ``_transmit``'s frame and the service loop indexes the handler
    table; 165,082 calls, 57.90 per message, since packets are built by
    ``new_packet``, whose ``object.__new__`` is a counted builtin call
    where the class call it replaced was not (the change is faster: the
    keyword class call's argument packing is C work no call count
    sees); 164,928 calls, 57.85 per message, since the suite's shape
    knobs and the cost model's per-operation costs are class constants
    (decision 0025); 156,289 calls, 54.82 per message, since the AM
    layers and NICs count messages and ``ClusterStats`` subscribes to
    no per-message hook (decision 0029); 156,012 calls, 54.72 per
    message, since ``ClusterStats`` subscribes to nothing and the ranks
    count their barriers and collectives (decision 0030); 149,378 calls,
    52.39 per message, since a sleep's, a park's and a kickoff's wake-up
    is the entry ``(when, NORMAL, seq, Process._resume, process)``,
    which ``Simulator.run`` resumes inline (decision 0032).  No timing enters: the count is a function of the seed and
    repeats exactly, also across ``PYTHONHASHSEED`` values (CI runs this
    test under two and prints it)."""
    calls, result = _calls_during(
        lambda: Cluster(8, seed=11).run(RadixSort(keys_per_proc=64)))
    per_message = calls / result.stats.total_messages
    print(f"Radix P=8: {calls} calls / {result.stats.total_messages} "
          f"messages = {per_message:.2f} calls per message")
    assert per_message <= CALLS_PER_MESSAGE_BUDGET


def test_kvserve_calls_per_request_stays_within_budget():
    """The serving request path, held like the message path: every call
    during one ``KVServe`` run at P=8 (300 requests, seed 13), over the
    requests.  54,413 calls, 181.38 per request, when every request went
    through a ``_send`` generator with a countdown dict and two
    closures, and the rank loop built a new wake predicate per request;
    50,761 calls, 169.20 per request, since a one-target remote request
    is sent from ``_issue``'s own frame with one reply callback (a local
    one, an eighth here, still goes through ``_send``; 46 calls are the
    constructor's finiteness checks); 51,954 calls, 173.18 per request,
    since packets and handler replies are built by functions (one
    ``object.__new__`` each); 51,246 calls, 170.82 per request, since
    frontends are assigned in place and no request counts what is in
    flight (the load-balance and replication forks are gone); 47,547
    calls, 158.49 per request (51,239 counted the same way just before),
    since the handlers, the client tier, the queue sampler and request
    completion update the instruments through bound locals and a
    request's send is the AM layer's generator, not one of ``_issue``'s
    own; 45,110 calls, 150.37 per request, since the AM layers and NICs
    count messages themselves (decision 0029); 44,881 calls, 149.60 per
    request, since ``ClusterStats`` subscribes to nothing (decision
    0030); 42,321 calls, 141.07 per request, since the event loop resumes
    a process's own wake-up entry itself (decision 0032).  Exact under
    any ``PYTHONHASHSEED``, as the Radix count is (CI prints all
    three)."""
    calls, result = _calls_during(lambda: Cluster(8, seed=13).run(KVServe(
        **SERVING_KNOBS)))
    requests = result.stats.serving.arrivals
    per_request = calls / requests
    print(f"KVServe P=8: {calls} calls / {requests} requests = "
          f"{per_request:.2f} calls per request")
    assert per_request <= CALLS_PER_REQUEST_BUDGET


def test_fanoutserve_calls_per_request_stays_within_budget():
    """The scatter-gather request path, held as ``KVServe``'s is: every
    call during one ``FanoutServe`` run at P=8 (four shards a request,
    300 requests, seed 13), over the requests.  143,345 calls, 477.82
    per request, when every sub-request went through a ``_send``
    generator with a lambda and a countdown dict; 132,729 calls, 442.43
    per request, since they are sent from ``_issue``'s own frame with
    one countdown cell and the instruments are updated in place; 125,600
    calls, 418.67 per request, since the AM layers and NICs count
    messages themselves (decision 0029); 125,371 calls, 417.90 per
    request, since ``ClusterStats`` subscribes to nothing (decision
    0030); 118,532 calls, 395.11 per request, since the event loop
    resumes a process's own wake-up entry itself (decision 0032).  Exact
    under any ``PYTHONHASHSEED`` (CI prints it)."""
    calls, result = _calls_during(lambda: Cluster(8, seed=13).run(
        FanoutServe(fanout=4, **dict(SERVING_KNOBS,
                                     offered_rps=100_000.0))))
    requests = result.stats.serving.arrivals
    per_request = calls / requests
    print(f"FanoutServe P=8: {calls} calls / {requests} requests = "
          f"{per_request:.2f} calls per request")
    assert per_request <= FANOUT_CALLS_PER_REQUEST_BUDGET
