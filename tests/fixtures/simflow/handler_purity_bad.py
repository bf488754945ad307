"""Planted defect: a registered AM handler -- a plain function, as every
handler is -- calls a helper whose generator blocks (``am.rpc``) two call
edges down, and drops it.  The handler's own body holds no yield and no
blocking primitive, so simlint's handler-purity rule passes it; the
dropped generator is a yield-integrity finding."""


def _lookup_remote(am, key):
    return am.rpc(0, "cache-peer", key)


def _refresh(am, packet):
    value = yield from _lookup_remote(am, packet.payload)
    am.host.state["cache"][packet.payload] = value


def _cache_handler(am, packet):
    _refresh(am, packet)   # BUG: a handler cannot drive a generator
    return am.host.state["cache"].get(packet.payload)


def install(table):
    table.register("cache-get", _cache_handler)
