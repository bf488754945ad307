"""Property-based tests of AM-layer conservation invariants.

For arbitrary traffic patterns: nothing is lost, nothing is duplicated,
credits are conserved, and the clock only moves forward.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.am.layer import AmLayer, HandlerTable
from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams
from repro.network.wire import Wire
from repro.sim import Simulator

SIM_SETTINGS = settings(max_examples=25, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


class _Host:
    def __init__(self):
        self.state = {"got": []}


def build_fabric(n_nodes, knobs=None, window=8):
    sim = Simulator()
    params = LogGPParams.berkeley_now()
    wire = Wire(sim, params.latency)
    table = HandlerTable()
    table.register(
        "prop_sink",
        lambda am, pkt: am.host.state["got"].append(pkt.payload))
    ams = []
    for node in range(n_nodes):
        am = AmLayer(sim, node, params, knobs or TuningKnobs(), wire,
                     table, window=window)
        am.host = _Host()
        ams.append(am)
    return sim, ams


#: A traffic script: per sender, a list of (dst_offset, oneway?) ops.
traffic = st.lists(
    st.lists(st.tuples(st.integers(min_value=1, max_value=3),
                       st.booleans()),
             min_size=0, max_size=12),
    min_size=2, max_size=4)


@given(script=traffic,
       delta_o=st.sampled_from([0.0, 10.0]),
       delta_L=st.sampled_from([0.0, 30.0]),
       window=st.sampled_from([1, 2, 8]))
@SIM_SETTINGS
def test_no_message_lost_or_duplicated(script, delta_o, delta_L,
                                       window):
    n_nodes = len(script)
    knobs = TuningKnobs(delta_o=delta_o, delta_L=delta_L)
    sim, ams = build_fabric(n_nodes, knobs=knobs, window=window)
    sent = []
    drained = {"count": 0}

    def node_process(rank, ops):
        # One process per node (the AM layer's contract): send, drain,
        # then keep serving until every node has drained.
        am = ams[rank]
        for index, (offset, oneway) in enumerate(ops):
            dst = (rank + offset) % n_nodes
            if dst == rank:
                continue
            tag = (rank, index)
            sent.append(tag)
            if oneway:
                yield from am.send_oneway(dst, "prop_sink", tag)
            else:
                yield from am.send_request(dst, "prop_sink", tag)
        yield from am.drain()
        drained["count"] += 1
        for other in ams:
            other.kick()
        yield from am.wait_until(
            lambda: drained["count"] == n_nodes and am.rx_pending == 0)

    processes = [sim.process(node_process(rank, ops))
                 for rank, ops in enumerate(script)]
    sim.run(stop_event=sim.all_of(processes))

    received = [tag for am in ams for tag in am.host.state["got"]]
    assert sorted(received) == sorted(sent)
    assert len(set(received)) == len(received)
    # Credits fully restored everywhere.
    for am in ams:
        assert all(c == window for c in am._credits.values())
        assert am.rx_pending == 0


@given(script=traffic)
@SIM_SETTINGS
def test_time_and_event_counts_are_deterministic(script):
    def run_once():
        n_nodes = len(script)
        sim, ams = build_fabric(n_nodes)

        drained = {"count": 0}

        def node_process(rank, ops):
            am = ams[rank]
            for offset, oneway in ops:
                dst = (rank + offset) % n_nodes
                if dst == rank:
                    continue
                yield from am.send_request(dst, "prop_sink", 0)
            yield from am.drain()
            drained["count"] += 1
            for other in ams:
                other.kick()
            yield from am.wait_until(
                lambda: drained["count"] == n_nodes
                and am.rx_pending == 0)

        processes = [sim.process(node_process(rank, ops))
                     for rank, ops in enumerate(script)]
        sim.run(stop_event=sim.all_of(processes))
        return sim.now, sim.events_processed

    assert run_once() == run_once()
