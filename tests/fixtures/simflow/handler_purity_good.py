"""Twin of handler_purity_bad.py: the handler computes locally through
plain helpers, at any depth, and returns its reply."""


def _format(packet, value):
    return ("ok", packet.payload, value)


def _lookup_local(am, packet):
    return _format(packet, am.host.state["cache"].get(packet.payload))


def _cache_handler(am, packet):
    return _lookup_local(am, packet)


def install(table):
    table.register("cache-get", _cache_handler)
