"""Planted defect: two registered AM handlers hand back a helper's
blocking generator.  The layer calls a handler once and sends the value
it returns, so the generator object goes out as the reply payload and
``_refresh``'s simulated time is skipped.  Both spellings: a named
handler and an inline lambda."""


def _refresh(am, packet):
    yield from am.proc.compute(5)
    return am.host.state["cache"].get(packet.payload)


def _handler(am, packet):
    return _refresh(am, packet)   # BUG: returned as the reply, never driven


def install(table):
    table.register("x", _handler)
    table.register("y", lambda am, packet: _refresh(am, packet))  # BUG
