"""Fixture: the pure twin of ``handler_purity_bad``.

Handlers are plain functions that compute, touch host state, and return
their reply; host service time rides on the returned ``Reply``, and the
blocking primitives live in ordinary SPMD code, where they are allowed.
"""

from repro.am import Reply


def _echo_handler(am, packet):
    return packet.payload


def _deposit_handler(am, packet):
    am.host.state["deposit"] = packet.payload
    # No return value: the layer auto-acks.


def _bulk_handler(am, packet):
    return Reply(packet.payload, nbytes=4096, service_us=am.host.service_us)


class GoodHandlers:
    def register_handlers(self, table):
        table.register("echo", _echo_handler)
        table.register("deposit", _deposit_handler)
        table.register("bulk", _bulk_handler)
        table.register("pair", lambda am, pkt: pkt)

    def run_rank(self, proc):
        # The same primitives are fine outside handler context.
        value = yield from proc.am.rpc(0, "echo", 1)
        yield from proc.barrier()
        yield from proc.am.host.poll()
        return value
