"""Integration tests: the AM layer must realise LogGP timing exactly.

These tests pin the model identities from Section 2 of the paper:

* a single short message is delivered after ``L + 2o`` (o_send at the
  sender, wire latency L, o_recv at the receiver);
* a request/response pair completes in ``2L + 4o``;
* back-to-back sends are separated by ``g`` once the pipe fills;
* each tuning dial moves exactly its own parameter.
"""

import pytest

from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams
from tests.helpers import Fabric

NOW = LogGPParams.berkeley_now()


def _echo_handler(am, packet):
    am.host.state["served"] = am.host.state.get("served", 0) + 1
    return packet.payload


def echo_server(am, expected):
    """Event-driven server: wait until `expected` requests were echoed."""
    yield from am.wait_until(
        lambda: am.host.state.get("served", 0) >= expected)


def _sink_times(am, packet):
    am.host.state.setdefault("arrivals", []).append(
        (am.sim.now, packet.payload))


def make_fabric(**kwargs):
    fabric = Fabric(**kwargs)
    fabric.table.register("echo", _echo_handler)
    fabric.table.register("sink", _sink_times)
    return fabric


def receiver_loop(am, expected):
    """Poll until `expected` messages have been handled."""
    yield from am.wait_until(
        lambda: len(am.host.state.get("arrivals", [])) >= expected)


def test_single_short_message_delivered_at_L_plus_2o():
    fabric = make_fabric()
    am0, am1 = fabric.ams

    def sender():
        yield from am0.send_oneway(1, "sink", payload="hi")

    fabric.run(sender(), receiver_loop(am1, 1))
    (arrival_time, payload), = am1.host.state["arrivals"]
    assert payload == "hi"
    # o_send + L + o_recv = 1.8 + 5.0 + 4.0 = 10.8 us
    assert arrival_time == pytest.approx(NOW.one_way_time())


def test_rpc_round_trip_is_2L_plus_4o():
    fabric = make_fabric()
    am0, am1 = fabric.ams

    def requester():
        value = yield from am0.rpc(1, "echo", payload=7)
        return (value, fabric.sim.now)

    results = fabric.run(requester(), echo_server(am1, 1))
    value, finish = results[0]
    assert value == 7
    assert finish == pytest.approx(NOW.round_trip_time())  # 21.6 us


def test_rtt_matches_paper_figure3_number():
    # Figure 3 annotates "Round Trip Time = 21 usec" for the NOW.
    assert NOW.round_trip_time() == pytest.approx(21.6, abs=0.7)


def test_added_latency_moves_only_L():
    base = make_fabric()
    dialed = make_fabric(knobs=TuningKnobs.added_latency(50.0))

    def one_message(fabric):
        am0, am1 = fabric.ams

        def sender():
            yield from am0.send_oneway(1, "sink", payload=1)

        fabric.run(sender(), receiver_loop(am1, 1))
        return am1.host.state["arrivals"][0][0]

    baseline_arrival = one_message(base)
    dialed_arrival = one_message(dialed)
    assert dialed_arrival - baseline_arrival == pytest.approx(50.0)


def test_added_overhead_charges_sender_per_message():
    def issue_time(delta_o):
        fabric = make_fabric(knobs=TuningKnobs.added_overhead(delta_o))
        am0, am1 = fabric.ams

        def sender():
            for i in range(4):
                yield from am0.send_oneway(1, "sink", payload=i)
            return fabric.sim.now

        results = fabric.run(sender(), receiver_loop(am1, 4))
        return results[0]

    base_time = issue_time(0.0)
    dialed_time = issue_time(10.0)
    # Four sends, each charged one extra delta_o at the sender.  (The
    # send rate stays below the window, so no gap/window effects.)
    assert dialed_time - base_time == pytest.approx(4 * 10.0)


def test_gap_spaces_wire_injections():
    # With zero overhead dial, a burst of sends queues in the NIC; wire
    # injections must be spaced by g.
    fabric = make_fabric(knobs=TuningKnobs.added_gap(20.0))
    am0, am1 = fabric.ams
    effective_gap = NOW.gap + 20.0

    def sender():
        for i in range(5):
            yield from am0.send_oneway(1, "sink", payload=i)

    fabric.run(sender(), receiver_loop(am1, 5))
    arrivals = [t for t, _ in am1.host.state["arrivals"]]
    spacings = [b - a for a, b in zip(arrivals, arrivals[1:])]
    # Once the transmit queue is backed up, spacing equals the gap.
    assert spacings[-1] == pytest.approx(effective_gap)
    assert max(spacings) <= effective_gap + 1e-9


def test_window_limits_outstanding_messages():
    fabric = make_fabric(window=2)
    am0, am1 = fabric.ams

    def sender():
        # One-way messages: credits come back after one-way wire time +
        # credit return, so with window=2 the sender must stall.
        for i in range(6):
            yield from am0.send_oneway(1, "sink", payload=i)
        return fabric.sim.now

    results = fabric.run(sender(), receiver_loop(am1, 6))
    finish = results[0]
    # Without the window, 6 sends would cost ~6*o_send.  With window=2
    # the sender round-trips credits, so it must take much longer.
    assert finish > 6 * NOW.send_overhead + 2 * NOW.latency


def test_large_latency_raises_effective_gap_through_window():
    # Table 2 (right): with the fixed window, very large L throttles the
    # steady-state send rate to ~RTT/window.
    window = 8
    delta_L = 100.0
    fabric = make_fabric(knobs=TuningKnobs.added_latency(delta_L),
                         window=window)
    am0, am1 = fabric.ams
    n_messages = 64

    def sender():
        start = fabric.sim.now
        for i in range(n_messages):
            yield from am0.send_oneway(1, "sink", payload=i)
        return (fabric.sim.now - start) / n_messages

    results = fabric.run(sender(), receiver_loop(am1, n_messages))
    effective_gap = results[0]
    # Credit round trip ~ (L + delta_L) + credit return (L + delta_L);
    # per-message steady state ~ 2(L+delta_L)/window ~ 26 us >> g = 5.8.
    expected = 2 * (NOW.latency + delta_L) / window
    assert effective_gap == pytest.approx(expected, rel=0.25)
    assert effective_gap > 3 * NOW.gap


def test_bulk_store_delivers_payload_and_costs_G():
    fabric = make_fabric()
    am0, am1 = fabric.ams
    received = {}

    def bulk_handler(am, packet):
        received["payload"] = packet.payload
        received["at"] = am.sim.now
        received["bytes"] = packet.logical_bytes

    fabric.table.register("bulk_sink", bulk_handler)
    nbytes = 16_384  # 4 fragments

    def sender():
        yield from am0.bulk_store_blocking(1, "bulk_sink",
                                           payload="DATA", nbytes=nbytes)
        return fabric.sim.now

    def server():
        yield from am1.wait_until(lambda: "payload" in received)

    results = fabric.run(sender(), server())
    assert received["payload"] == "DATA"
    assert received["bytes"] == nbytes
    # Four fragments at >= 4096 * G us each must serialise in the
    # transmit context: delivery no earlier than the DMA time.
    dma_time = nbytes * NOW.Gap
    assert received["at"] >= dma_time
    assert results[0] >= received["at"]  # ack comes after delivery


def test_bulk_bandwidth_knob_slows_transfer():
    nbytes = 65_536

    def transfer_time(knobs):
        fabric = make_fabric(knobs=knobs)
        am0, am1 = fabric.ams
        seen = {}

        def handler(am, packet):
            seen["at"] = am.sim.now

        fabric.table.register("sink_bulk", handler)

        def sender():
            yield from am0.bulk_oneway(1, "sink_bulk", None, nbytes)

        def server():
            yield from am1.wait_until(lambda: "at" in seen)

        fabric.run(sender(), server())
        return seen["at"]

    fast = transfer_time(TuningKnobs())
    slow = transfer_time(TuningKnobs.bulk_bandwidth(5.0, NOW))
    # 38 MB/s -> 5 MB/s: the transfer should take ~7.6x the DMA time.
    assert slow / fast == pytest.approx(38.0 / 5.0, rel=0.15)


def test_oneway_costs_sender_single_overhead():
    fabric = make_fabric()
    am0, am1 = fabric.ams

    def sender():
        yield from am0.send_oneway(1, "sink", payload=0)
        return fabric.sim.now

    results = fabric.run(sender(), receiver_loop(am1, 1))
    assert results[0] == pytest.approx(NOW.send_overhead)


def test_request_gets_automatic_ack_and_credit_back():
    fabric = make_fabric(window=4)
    am0, am1 = fabric.ams
    acked = []

    def sender():
        yield from am0.send_request(1, "sink", payload=0,
                                    on_reply=lambda _p: acked.append(
                                        fabric.sim.now))
        yield from am0.wait_until(lambda: bool(acked))
        return am0.credits_available

    def server():
        yield from am1.wait_until(
            lambda: len(am1.host.state.get("arrivals", [])) >= 1)

    results = fabric.run(sender(), server())
    assert acked, "auto-ack never processed"
    assert results[0] == 4  # credit returned


def test_request_from_handler_is_rejected():
    """A handler that would issue a request has to drive a generator,
    and the table refuses generator handlers at registration."""
    from repro.am.layer import AmError
    fabric = make_fabric()

    def evil_handler(am, packet):
        yield from am.send_request(packet.src, "sink", payload=0)

    with pytest.raises(AmError, match="generator"):
        fabric.table.register("evil", evil_handler)
    assert "evil" not in fabric.table
