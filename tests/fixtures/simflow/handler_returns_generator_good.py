"""Twin of handler_returns_generator_bad.py: the handlers return the
cached value, and the blocking refresh runs in SPMD code, driven with
``yield from``."""


def _lookup(am, packet):
    return am.host.state["cache"].get(packet.payload)


def _handler(am, packet):
    return _lookup(am, packet)


def install(table):
    table.register("x", _handler)
    table.register("y", lambda am, packet: _lookup(am, packet))


def _refresh(am, key):
    yield from am.proc.compute(5)
    am.host.state["cache"][key] = key


def run_rank(proc):
    yield from _refresh(proc.am, proc.rank)
