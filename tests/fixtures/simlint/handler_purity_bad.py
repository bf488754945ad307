"""Fixture: Active Message handlers that would block at interrupt level."""


def _forwarding_handler(am, packet):
    return am.rpc(0, "fetch", packet.payload)    # blocking call (line 5)


def _sleepy_handler(am, packet):                 # generator (line 8)
    yield am.host.service_us
    return packet.payload


class BadHandlers:
    def register_handlers(self, table):
        table.register("forward", _forwarding_handler)
        table.register("sleepy", _sleepy_handler)
        table.register("drainer", lambda am, pkt: am.host.poll())  # (17)
