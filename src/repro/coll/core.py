"""Message substrate shared by every ``repro.coll`` algorithm.

All collective implementations move data through one generic Active
Message handler, :data:`COLL_HANDLER`, which deposits ``(key, value)``
pairs into the receiving rank's ``collective_box``.  Keys embed the
primitive, a per-type epoch counter (advanced identically on every rank,
SPMD order), and enough round/peer structure that back-to-back
collectives can never confuse each other's messages.

Because every byte still flows through ``AmLayer.send_request`` /
``bulk_store``, the algorithms inherit the simulated NIC and wire, the
fault-injection ARQ, and simsan's vector clocks for free.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from repro.am.layer import AmLayer, HandlerTable

__all__ = ["COLL_HANDLER", "TOKEN_BYTES", "register_coll_handlers",
           "send_value", "recv_value", "ceil_log2"]

#: The single deposit handler every ``repro.coll`` algorithm sends to.
COLL_HANDLER = "_coll_put"

#: Wire size of a data-free control token (barrier arrivals/releases).
TOKEN_BYTES = 8


def _coll_put(am: AmLayer, packet) -> None:
    """Deposit a collective payload for the waiting rank."""
    key, value = packet.payload
    am.host.collective_box[key] = value


def register_coll_handlers(table: HandlerTable) -> None:
    """Install the reserved ``_coll_*`` handlers used by ``repro.coll``."""
    table.register(COLL_HANDLER, _coll_put)


def ceil_log2(n: int) -> int:
    """Rounds of a binomial/dissemination schedule over ``n`` ranks."""
    rounds = 0
    while (1 << rounds) < n:
        rounds += 1
    return rounds


def send_value(proc: "Proc", dst: int, key: Tuple, value: Any,  # noqa: F821
               nbytes: int, bulk: bool = False,
               on_complete: Optional[Any] = None) -> Generator:
    """Ship ``(key, value)`` to ``dst``'s collective box.

    ``bulk=True`` moves the payload as a bulk transfer (fragmented,
    paying ``G`` per byte); otherwise it travels as one short packet.
    ``on_complete`` is invoked when the deposit is acknowledged.
    Returns the AM send's own generator: no frame of its own on every
    resume of a send that stalls for a window slot.
    """
    if bulk:
        return proc.am.bulk_store(dst, COLL_HANDLER, (key, value),
                                  max(1, int(nbytes)),
                                  on_complete=on_complete)
    return proc.am.send_request(dst, COLL_HANDLER, (key, value),
                                size=max(1, int(nbytes)),
                                on_reply=on_complete)


def recv_value(proc: "Proc", key: Tuple, src: int,  # noqa: F821
               detail: str) -> Generator:
    """Wait for ``key`` to land in the collective box and pop it.

    ``src`` and ``detail`` feed simsan's structured wait annotation so a
    stuck collective names the peer it is waiting on.
    """
    box = proc.collective_box
    wait = None if not proc.am.watching else \
        ("collective", (src,), detail)
    yield from proc.am.wait_until(lambda: key in box, wait=wait)
    return box.pop(key)
