"""Edge cases of the Active Message layer and handler protocol."""

import pytest

from repro.am.layer import AmError, HandlerTable, Reply
from repro.network.packet import BULK_FRAGMENT_BYTES, fragment_sizes
from tests.helpers import Fabric


def test_handler_table_duplicate_rejected():
    table = HandlerTable()
    table.register("h", lambda am, pkt: None)
    with pytest.raises(AmError):
        table.register("h", lambda am, pkt: None)
    assert "h" in table
    with pytest.raises(AmError):
        table.lookup("missing")


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        Fabric(window=0)


def test_reply_to_oneway_rejected():
    fabric = Fabric()
    am0, am1 = fabric.ams
    done = {}

    def chatty(am, packet):
        return "you did not ask"

    fabric.table.register("chatty", chatty)

    def sender():
        yield from am0.send_oneway(1, "chatty", payload=0)
        done["sent"] = True

    def server():
        yield from am1.wait_until(lambda: False)

    with pytest.raises(AmError, match="one-way"):
        fabric.run(sender(), server())


def test_bulk_zero_bytes_rejected():
    fabric = Fabric()
    am0 = fabric.ams[0]

    def body():
        yield from am0.bulk_store(1, "x", None, 0)

    with pytest.raises(ValueError):
        fabric.run(body())
    with pytest.raises(ValueError):
        Reply("get", nbytes=0)


def _rpc_done_at(service_us):
    """When an rpc completes against a handler that asks for
    ``service_us`` of host time before its short reply."""
    fabric = Fabric()
    am0, am1 = fabric.ams
    fabric.table.register(
        "serve", lambda am, packet: Reply("v", service_us=service_us))

    def requester():
        value = yield from am0.rpc(1, "serve")
        return value, fabric.sim.now

    def server():
        yield from am1.wait_until(lambda: False)

    sim = fabric.sim
    req = sim.process(requester())
    sim.process(server())
    value, now = sim.run(stop_event=req)
    assert value == "v"
    return now


def test_reply_service_time_is_charged_before_the_reply():
    assert _rpc_done_at(5.0) == pytest.approx(_rpc_done_at(0.0) + 5.0)


@pytest.mark.parametrize("service_us", [float("nan"), float("inf"),
                                        float("-inf"), -1.0])
def test_reply_refuses_a_service_time_that_charges_nothing(service_us):
    # A NaN or negative time used to pass and charge nothing: the rpc
    # completed exactly as with 0.0.
    with pytest.raises(ValueError, match="service_us"):
        Reply("v", service_us=service_us)


@pytest.mark.parametrize("nbytes", [float("nan"), float("inf"), 0, -1])
def test_reply_refuses_a_size_that_is_not_finite_and_positive(nbytes):
    with pytest.raises(ValueError, match="nbytes"):
        Reply("v", nbytes=nbytes)


def test_fragment_count_boundaries():
    for nbytes, count in ((1, 1), (BULK_FRAGMENT_BYTES, 1),
                          (BULK_FRAGMENT_BYTES + 1, 2),
                          (10 * BULK_FRAGMENT_BYTES, 10)):
        sizes = fragment_sizes(nbytes)
        assert len(sizes) == count
        assert sum(sizes) == nbytes
        assert all(1 <= size <= BULK_FRAGMENT_BYTES for size in sizes)


def test_bulk_fragments_share_xfer_id_and_reassemble():
    fabric = Fabric()
    am0, am1 = fabric.ams
    seen = {}

    def sink(am, packet):
        seen["payload"] = packet.payload
        seen["fragments"] = packet.fragment
        seen["bytes"] = packet.logical_bytes
        return None

    fabric.table.register("frag_sink", sink)
    nbytes = 3 * BULK_FRAGMENT_BYTES + 100

    def sender():
        yield from am0.bulk_oneway(1, "frag_sink", "BIG", nbytes)

    def server():
        yield from am1.wait_until(lambda: "payload" in seen)

    fabric.run(sender(), server())
    assert seen["payload"] == "BIG"
    assert seen["fragments"] == (3, 4)  # delivered on the last of 4
    assert seen["bytes"] == nbytes


def test_reply_bulk_returns_payload_and_size():
    fabric = Fabric()
    am0, am1 = fabric.ams

    def server_handler(am, packet):
        return Reply({"data": list(range(5))}, nbytes=9000)

    fabric.table.register("get5", server_handler)

    def requester():
        payload, nbytes = yield from am0.bulk_rpc(1, "get5")
        return payload, nbytes

    def server():
        yield from am1.wait_until(lambda: False)

    sim = fabric.sim
    req = sim.process(requester())
    sim.process(server())
    payload, nbytes = sim.run(stop_event=req)
    assert payload == {"data": [0, 1, 2, 3, 4]}
    assert nbytes == 9000


def test_credits_restored_after_bulk_rpc():
    fabric = Fabric(window=3)
    am0, am1 = fabric.ams

    def server_handler(am, packet):
        return Reply("ok", nbytes=5000)

    fabric.table.register("getx", server_handler)

    def requester():
        for _ in range(5):  # more rpcs than the window
            yield from am0.bulk_rpc(1, "getx")
        yield from am0.drain()
        return am0.credits_for(1)

    def server():
        yield from am1.wait_until(lambda: False)

    sim = fabric.sim
    req = sim.process(requester())
    sim.process(server())
    assert sim.run(stop_event=req) == 3


def test_rx_pending_and_poll_drain():
    fabric = Fabric()
    am0, am1 = fabric.ams
    handled = []
    fabric.table.register(
        "psink2", lambda am, pkt: handled.append(pkt.payload))

    def sender():
        for i in range(3):
            yield from am0.send_oneway(1, "psink2", payload=i)

    def idle_then_poll():
        yield fabric.sim.timeout(200.0)
        assert am1.rx_pending == 3  # delivered but unpolled
        yield from am1.poll()
        assert am1.rx_pending == 0

    fabric.run(sender(), idle_then_poll())
    assert handled == [0, 1, 2]


def test_stray_credit_is_an_error():
    fabric = Fabric()
    am0 = fabric.ams[0]
    with pytest.raises(AmError):
        am0._credit_returned(999_999)


def test_wait_until_immediately_true_costs_nothing():
    fabric = Fabric()
    am0 = fabric.ams[0]

    def body():
        yield from am0.wait_until(lambda: True)
        return fabric.sim.now

    assert fabric.run(body())[0] == 0.0
