"""Packets travelling through the simulated network.

Two sizes exist, mirroring Generic Active Messages:

* *short* packets -- a handful of words (requests, replies, acks);
* *bulk fragments* -- pieces of a bulk transfer, at most 4 KB each,
  moved by the NIC's DMA engine at rate ``1/G``.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, List, Optional, Tuple

__all__ = ["PacketKind", "Packet", "new_packet", "BULK_FRAGMENT_BYTES",
           "fragment_sizes", "SHORT_PACKET_BYTES", "new_xfer_id", "REQUEST",
           "REPLY", "CREDIT", "BULK_FRAGMENT", "ACK"]

#: Maximum bulk fragment payload injected per DMA, as in the paper (4 KB).
BULK_FRAGMENT_BYTES = 4096


def fragment_sizes(nbytes: int) -> List[int]:
    """The fragments a bulk transfer of ``nbytes`` is cut into: full
    :data:`BULK_FRAGMENT_BYTES` ones, then the rest.  Every size is at
    least one byte, and a transfer of ``nbytes <= 0`` is one 1-byte
    fragment."""
    full, rest = divmod(max(1, nbytes) - 1, BULK_FRAGMENT_BYTES)
    return [BULK_FRAGMENT_BYTES] * full + [rest + 1]

#: Nominal size of a short Active Message packet (header + 4 words).
SHORT_PACKET_BYTES = 32

_sequence = itertools.count()


def new_xfer_id() -> int:
    """A fresh transfer identifier, shared by all fragments of one bulk
    transfer and by a reply with its request."""
    return next(_sequence)


class PacketKind(Enum):
    """What a packet is, which determines how each end processes it."""

    #: Short AM request; delivered to the host, runs a handler, and is
    #: answered by a REPLY (explicit or implicit ack).
    REQUEST = "request"
    #: Short AM reply; delivered to the host (costs receive overhead) and
    #: returns the window credit taken by its request.
    REPLY = "reply"
    #: NIC-level flow-control credit for one-way messages; consumed by the
    #: receiving NIC, never reaches the host, bypasses the transmit gap.
    CREDIT = "credit"
    #: One fragment of a bulk transfer.
    BULK_FRAGMENT = "bulk_fragment"
    #: Reliability-protocol acknowledgement (only exists when a
    #: :class:`~repro.network.faults.FaultPlan` can drop packets);
    #: consumed by the sending NIC, never reaches the host, bypasses the
    #: transmit gap, and is itself never retransmitted.
    ACK = "ack"


#: The members, bound once: reading ``PacketKind.REQUEST`` runs the
#: enum metaclass's ``__getattr__`` hook, a module global does not, so
#: code on the message path compares ``packet.kind`` with these names.
REQUEST = PacketKind.REQUEST
REPLY = PacketKind.REPLY
CREDIT = PacketKind.CREDIT
BULK_FRAGMENT = PacketKind.BULK_FRAGMENT
ACK = PacketKind.ACK

_INF = float("inf")
_new = object.__new__


class Packet:
    """A message (or message fragment) in flight, built by
    :func:`new_packet`.

    ``handler`` names an entry in the destination's Active Message handler
    table; ``payload`` is an arbitrary Python object standing in for the
    message body (its simulated size is ``size_bytes``).  A slotted class
    filled in by a plain function: one is built per packet on the message
    path, and a keyword class call packs an argument tuple and dict that
    the function call does not.
    """

    __slots__ = ("kind", "src", "dst", "handler", "payload", "size_bytes",
                 "is_read", "is_bulk", "xfer_id", "fragment", "one_way",
                 "is_reply", "message_bytes", "seq", "clock")

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        raise TypeError("build a Packet with new_packet(kind, src, dst, ...)")

    @property
    def logical_bytes(self) -> int:
        """Bytes of the logical message this packet completes."""
        return self.message_bytes if self.message_bytes is not None \
            else self.size_bytes

    @property
    def is_last_fragment(self) -> bool:
        index, count = self.fragment
        return index == count - 1

    def __repr__(self) -> str:
        return (f"<Packet {self.kind.value} {self.src}->{self.dst} "
                f"handler={self.handler} bytes={self.size_bytes} "
                f"xfer={self.xfer_id}>")


def new_packet(kind: PacketKind, src: int, dst: int,
               handler: Optional[str] = None, payload: Any = None,
               size_bytes: int = SHORT_PACKET_BYTES, is_read: bool = False,
               is_bulk: bool = False, xfer_id: Optional[int] = None,
               fragment: Tuple[int, int] = (0, 1), one_way: bool = False,
               is_reply: bool = False,
               message_bytes: Optional[int] = None) -> Packet:
    """The one way to build a :class:`Packet` (``seq`` and ``clock``
    start as ``None``).  ``xfer_id`` is drawn from the process-wide
    sequence when not given, before the checks, which may refuse the
    packet: one to itself, a ``size_bytes`` that is not finite and
    positive, or a fragment out of range or over
    :data:`BULK_FRAGMENT_BYTES`."""
    packet = _new(Packet)
    #: Links a reply to its request, and fragments to their transfer.
    packet.xfer_id = next(_sequence) if xfer_id is None else xfer_id
    if src == dst:
        raise ValueError(
            f"packet to self ({src}); local operations must not "
            "enter the network")
    if not 0 < size_bytes < _INF:  # NaN fails every comparison
        raise ValueError(
            f"size_bytes must be finite and > 0, got {size_bytes}")
    if kind is BULK_FRAGMENT:
        index, count = fragment
        if not 0 <= index < count:
            raise ValueError(f"bad fragment indices {fragment}")
        if size_bytes > BULK_FRAGMENT_BYTES:
            raise ValueError(
                f"fragment of {size_bytes} bytes exceeds "
                f"{BULK_FRAGMENT_BYTES}")
    packet.kind = kind
    packet.src = src
    packet.dst = dst
    packet.handler = handler
    packet.payload = payload
    packet.size_bytes = size_bytes
    #: True if this packet is part of a read request/reply pair
    #: (instrumentation for Table 4's "percent reads" column).
    packet.is_read = is_read
    #: True if the *logical message* is a bulk transfer.
    packet.is_bulk = is_bulk
    #: (fragment_index, fragment_count) for BULK_FRAGMENT packets.
    packet.fragment = fragment
    #: True when the sender does not expect a host-level reply; the
    #: receiving NIC returns a CREDIT instead.
    packet.one_way = one_way
    #: True for bulk fragments that constitute a *reply* to a request
    #: (a GAM ``get``); the receiving NIC returns the window credit.
    packet.is_reply = is_reply
    #: Size of the whole logical message (for bulk: the total transfer,
    #: recorded on the last fragment); ``None`` means ``size_bytes``.
    packet.message_bytes = message_bytes
    #: Reliability-protocol sequence number, assigned by the sending NIC
    #: at first injection when the fault plan can drop packets; stable
    #: across retransmissions so the receiver can suppress duplicates.
    #: ``None`` on the reliable-fabric fast path.
    packet.seq = None
    #: Piggybacked vector-clock snapshot, attached by simsan at the
    #: host-level send when ``sanitize=True``; stable across
    #: retransmissions (the Packet object is reused).  ``None`` when the
    #: sanitizer is off.
    packet.clock = None
    return packet
