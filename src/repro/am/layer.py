"""A Generic-Active-Messages-style communication layer.

One :class:`AmLayer` exists per node.  Exactly one host process (the SPMD
program) drives it; the layer's operations are generators that the host
process ``yield from``'s, so every microsecond of overhead is charged to
the host processor that incurs it, exactly as in the paper's apparatus:

* every send costs ``send_overhead + delta_o`` of host time;
* every reception costs ``recv_overhead + delta_o`` of host time, paid
  when the host *polls* (GAM is polling-based: the layer polls on every
  communication operation and while waiting);
* request/reply pairing follows Split-C semantics -- every request is
  answered, either explicitly by its handler or by an automatic ack, so a
  processor pays ``2 o`` per message it sends (the paper's ``2 m o``
  overhead model);
* one-way messages (used by NOW-sort) are acknowledged at NIC level
  (a CREDIT) and cost the sender only one ``o``;
* a fixed window of :data:`DEFAULT_WINDOW` outstanding messages provides
  flow control.  The window is intentionally *constant*, independent of
  ``L`` and ``g`` -- the paper observes ("a notable effect of our
  implementation") that this makes the effective gap rise at very large
  latencies because the pipeline can no longer be filled.

Handlers are plain functions ``handler(am, packet)`` registered in a
:class:`HandlerTable`.  The layer runs a handler to completion and sends
the value it returns as the request's one reply: ``None`` is the
automatic ack, a :class:`Reply` asks for a bulk reply and/or host
service time first.  A handler cannot block, so GAM's rule that handlers
only reply holds by construction.
"""

from __future__ import annotations

import inspect
from collections import defaultdict, deque
from typing import Any, Callable, Deque, Dict, Generator, Optional

from repro.am.tuning import TuningKnobs
from repro.instruments.probes import Probes
from repro.network.loggp import LogGPParams
from repro.network.packet import (BULK_FRAGMENT, REPLY, REQUEST,
                                  SHORT_PACKET_BYTES, Packet, fragment_sizes,
                                  new_packet, new_xfer_id)
from repro.sim import Park, Simulator

__all__ = ["AmLayer", "HandlerTable", "Reply", "HandlerReply",
           "DEFAULT_WINDOW", "AmError"]

#: Fixed number of outstanding (unacknowledged) messages per node.  Eight
#: reproduces the paper's Table 2 latency/gap coupling: at ``delta_L`` = 100
#: µs the effective gap observed there (~27.7 µs) matches RTT/8.
DEFAULT_WINDOW = 8


class AmError(RuntimeError):
    """Protocol misuse (a generator handler, a reply to a one-way
    message, an unregistered handler, ...)."""


_INF = float("inf")
_new = object.__new__


class HandlerReply:
    """What a handler returns when a short reply of its value will not
    do, built by :func:`Reply`."""

    __slots__ = ("payload", "nbytes", "service_us")

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        raise TypeError("build a HandlerReply with "
                        "Reply(payload, nbytes=, service_us=)")


def Reply(payload: Any, nbytes: Optional[int] = None,
          service_us: float = 0.0) -> HandlerReply:
    """``payload`` as a bulk reply of ``nbytes`` (a GAM ``get``; None for
    a short one), sent after ``service_us`` of host time.  A function,
    not a class call: every served KV request builds one.  A size that
    is not finite and positive, or a time that is not finite and >= 0,
    is refused."""
    if nbytes is not None and not 0 < nbytes < _INF:
        raise ValueError(f"nbytes must be finite and > 0, got {nbytes}")
    if not 0.0 <= service_us < _INF:  # NaN fails every comparison
        raise ValueError(
            f"service_us must be finite and >= 0, got {service_us}")
    reply = _new(HandlerReply)
    reply.payload = payload
    reply.nbytes = nbytes
    reply.service_us = service_us
    return reply


class HandlerTable:
    """Named Active Message handlers for one application."""

    def __init__(self) -> None:
        self._handlers: Dict[str, Callable] = {}

    def register(self, name: str, handler: Callable) -> None:
        """Register plain function ``handler(am, packet)``, whose return
        value is the reply.  A generator function is refused: handlers
        run to completion and never block."""
        if name in self._handlers:
            raise AmError(f"handler {name!r} already registered")
        if inspect.isgeneratorfunction(handler):
            raise AmError(f"handler {name!r} is a generator function; "
                          "a handler returns its reply (see Reply)")
        self._handlers[name] = handler

    def lookup(self, name: str) -> Callable:
        """Resolve a handler by name; AmError if unregistered."""
        try:
            return self._handlers[name]
        except KeyError:
            raise AmError(f"no handler registered under {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._handlers


class AmLayer:
    """The per-node Active Message endpoint; ``probes`` are the run's
    observers (:mod:`repro.instruments.probes`), none by default.

    The layer counts the logical messages it sends and receives, named
    after the :class:`~repro.instruments.stats.ClusterStats` arrays a
    run's stats copy them into: ``sent_to[dst]`` (a matrix row),
    ``bulk_messages_sent``, ``read_messages_sent``, ``small_bytes_sent``,
    ``bulk_bytes_sent`` and ``messages_received``.  They count from
    construction; the stats reset them when the measured region starts,
    so only the region's traffic is kept."""

    def __init__(self, sim: Simulator, node_id: int, params: LogGPParams,
                 knobs: TuningKnobs, wire: "Wire",  # noqa: F821
                 handlers: HandlerTable,
                 window: int = DEFAULT_WINDOW,
                 window_scope: str = "per-destination",
                 faults: Optional["FaultPlan"] = None,  # noqa: F821
                 probes: Optional[Probes] = None) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if window_scope not in ("per-destination", "global"):
            raise ValueError(f"unknown window scope {window_scope!r}")
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.knobs = knobs
        self.handlers = handlers
        #: The table's own dict: the service loop indexes it in place,
        #: and falls back on ``lookup`` only to refuse an unknown name.
        self._handler_of = handlers._handlers
        self.window = window
        self.window_scope = window_scope
        self._per_destination = window_scope == "per-destination"
        #: Observation-only: a hook charges no simulated time, so an
        #: observed run stays bit-identical.
        if probes is None:
            probes = Probes()
        self.probes = probes
        self._on_send = probes.send
        self._on_recv = probes.recv
        self._on_handled = probes.handled
        self._on_blocked = probes.blocked
        self._on_wait_enter = probes.wait_enter
        self._on_wait_exit = probes.wait_exit
        #: Whether a wait's ``(kind, peers, detail)`` annotation has a
        #: reader; callers build one (an f-string) only when it does.
        self.watching = probes.wait_enter is not None
        #: Messages sent per destination: a ``defaultdict`` on its own,
        #: a list of zeros from the stats once the region starts.
        self.sent_to = defaultdict(int)
        self.bulk_messages_sent = 0
        self.read_messages_sent = 0
        self.small_bytes_sent = 0
        self.bulk_bytes_sent = 0
        self.messages_received = 0
        #: Flow control is per destination endpoint, as in GAM: ``window``
        #: outstanding requests per (src, dst) pair.  A single-partner
        #: exchange (the calibration microbenchmark) is throttled to
        #: RTT/window at large L — the paper's Table 2 coupling — while
        #: all-to-all application traffic is not.
        self._credits: Dict[int, int] = {}
        #: xfer_id -> destination, to return the right pair's credit.
        self._credit_owner: Dict[int, int] = {}
        #: Delivered by the NIC, not yet polled: the host's receive
        #: queue.  Only the layer changes it; ``len(am.rx_queue)`` is the
        #: receive depth, read without a property call.
        self.rx_queue: Deque[Packet] = deque()
        #: Where the host parks between arrivals (stall reports print
        #: its label).
        self._wakeup = Park(sim, f"am-wakeup[{node_id}]")
        #: xfer_id -> callable(payload) run when the pairing reply (or
        #: reply-bulk completion) is processed by the host.
        self._on_reply: Dict[int, Callable[[Any], None]] = {}
        # Imported here to keep the am <-> network import graph acyclic
        # (the NIC needs TuningKnobs from this package).
        from repro.network.nic import Nic
        self.nic = Nic(sim, node_id, params, knobs, wire,
                       deliver_to_host=self._host_deliver,
                       return_credit=self._credit_returned,
                       faults=faults, probes=probes)
        #: The host's per-message charges, read once from the NIC's
        #: :class:`~repro.am.tuning.DialedCost`.  As floats, yielding one
        #: is a bare sleep on the engine's fast path.
        self._send_cost = float(self.nic.charge.send_charge)
        self._recv_cost = float(self.nic.charge.recv_charge)

    def credits_for(self, dst: int) -> int:
        """Unused window slots toward ``dst`` (diagnostic)."""
        return self._credits.get(self._credit_key(dst), self.window)

    @property
    def credits_available(self) -> int:
        """Unused window slots toward the busiest destination
        (diagnostic; equals ``window`` when nothing is outstanding)."""
        if not self._credits:
            return self.window
        return min(self._credits.values())

    @property
    def rx_pending(self) -> int:
        """Messages delivered by the NIC but not yet polled."""
        return len(self.rx_queue)

    # -- NIC callbacks ------------------------------------------------------
    def _host_deliver(self, packet: Packet) -> None:
        self.rx_queue.append(packet)
        if self._wakeup.waiter is not None:  # mostly, the host is awake
            self._wakeup.wake()

    def _credit_returned(self, xfer_id: int) -> None:
        dst = self._credit_owner.pop(xfer_id, None)
        if dst is None:
            raise AmError(
                f"stray credit for xfer {xfer_id} on node {self.node_id}")
        if self._credits[dst] >= self.window:
            raise AmError(f"credit overflow on node {self.node_id}")
        self._credits[dst] += 1
        if self._wakeup.waiter is not None:
            self._wakeup.wake()

    # -- wakeup signalling ---------------------------------------------------
    def kick(self) -> None:
        """Public wakeup: make a parked :meth:`wait_until` re-check its
        predicate *now* (a no-op when the host is not parked).  For
        simulator processes outside the rank set (e.g. the serving client
        tier) that change state a host loop is waiting on without sending
        it a message."""
        park = self._wakeup
        if park.waiter is not None:  # an awake host needs no wake
            park.wake()

    # -- polling and waiting --------------------------------------------------
    def poll(self) -> Generator:
        """Drain delivered messages, paying receive overhead per message
        and running handlers; called from every communication operation
        and compute chunk, as in GAM.  A wait for an empty receive queue,
        which therefore never parks."""
        rx = self.rx_queue
        return self.wait_until(lambda: not rx)

    def wait_until(self, predicate: Callable[[], bool],
                   wait: Optional[tuple] = None) -> Generator:
        """Poll until ``predicate()`` holds, sleeping between arrivals.

        The layer's one service loop: every reception is paid for and
        dispatched in this frame -- one receive-charge sleep (``o_recv +
        delta_o``) per message, then, for a request, its handler's
        ``service_us`` (when > 0) and one send-charge sleep (``o_send +
        delta_o``) for the reply the handler returned.

        The predicate may only become true as a consequence of this node's
        own polling (handler/reply processing) or of NIC-level credit
        returns; both kick the wakeup.  The predicate is re-checked
        after *every* serviced message — a continuously refilling receive
        queue (e.g. a storm of lock retries) must not starve the waiter
        whose reply has already been processed.

        ``wait`` is an optional ``(kind, peer_ranks, detail)`` annotation
        for the ``wait_enter`` hook (simsan's wait-for graph); callers
        build it only when :attr:`watching`, and the bookkeeping is a
        single enter/exit around the whole wait, off the per-message
        resume path.
        """
        watched = wait is not None and self.watching
        if watched:
            self._on_wait_enter(self.node_id, *wait)
        rx = self.rx_queue
        handlers = self._handler_of
        try:
            while not predicate():
                if not rx:
                    parked_at = self.sim.now
                    yield self._wakeup
                    hook = self._on_blocked
                    if hook is not None:
                        hook(self.node_id, self.sim.now - parked_at)
                    continue
                packet = rx.popleft()
                yield self._recv_cost
                self.messages_received += 1
                hook = self._on_recv
                if hook is not None:
                    hook(self.node_id, packet)
                kind = packet.kind
                if kind is REQUEST or (kind is BULK_FRAGMENT
                                       and not packet.is_reply):
                    name = packet.handler
                    reply = None if name is None else (
                        handlers[name] if name in handlers
                        else self.handlers.lookup(name))(self, packet)
                    if packet.one_way:
                        if reply is not None:
                            raise AmError(
                                f"handler {packet.handler!r} replied to a "
                                f"one-way message on node {self.node_id}")
                    else:
                        # Split-C semantics: every request is answered,
                        # with the handler's value or (None) an ack, so
                        # the sender's window credit returns and the
                        # sender pays its second `o` receiving it.
                        nbytes = None
                        if type(reply) is HandlerReply:
                            if reply.service_us > 0:
                                yield reply.service_us
                            nbytes = reply.nbytes
                            reply = reply.payload
                        yield self._send_cost
                        if nbytes is None:
                            sent = new_packet(REPLY, self.node_id,
                                              packet.src, payload=reply,
                                              is_read=packet.is_read)
                            sent.xfer_id = packet.xfer_id
                            self.sent_to[packet.src] += 1
                            self.small_bytes_sent += SHORT_PACKET_BYTES
                            if packet.is_read:
                                self.read_messages_sent += 1
                        else:
                            sent = self._enqueue_fragments(
                                packet.src, None, (reply, nbytes), nbytes,
                                one_way=False, is_reply=True,
                                xfer_id=packet.xfer_id,
                                is_read=packet.is_read)
                        # As for every send: the hook sees a bulk reply's
                        # fragments queued, a short reply not yet.
                        hook = self._on_send
                        if hook is not None:
                            hook(self.node_id, sent)
                        if nbytes is None:
                            self.nic.enqueue(sent)
                else:
                    callback = self._on_reply.pop(packet.xfer_id, None)
                    if callback is not None:
                        callback(packet.payload)
                hook = self._on_handled
                if hook is not None:
                    hook(self.node_id, packet)
        finally:
            if watched:
                hook = self._on_wait_exit
                if hook is not None:
                    hook(self.node_id)

    # -- sending --------------------------------------------------------------
    def _credit_key(self, dst: int) -> int:
        """Which credit pool a destination draws from.

        ``per-destination`` (GAM-like, the default) gives each endpoint
        pair its own window; ``global`` shares one pool across all
        destinations — the ablation under which even all-to-all traffic
        is throttled to RTT/window at large L.
        """
        return dst if self._per_destination else -1

    def _take_credit(self, dst: int) -> Optional[int]:
        """What every send operation starts with: take a window slot
        toward ``dst`` if one is free.  Returns the credit pool drawn from
        (``_credit_owner`` keeps it for the transfer), or None when the
        caller must block in :meth:`_acquire_credit`."""
        key = dst if self._per_destination else -1  # _credit_key, inline
        credits = self._credits
        free = credits[key] if key in credits else self.window
        if free <= 0:
            return None
        credits[key] = free - 1
        return key

    def _acquire_credit(self, dst: int) -> Generator:
        """Block (polling, like a stalled GAM sender) until a window slot
        toward ``dst`` is free, then take it; returns its pool's key."""
        key = self._credit_key(dst)  # in _credits: it has no free slot
        wait = None if not self.watching else \
            ("credit", (dst,), f"window slot toward rank {dst}")
        yield from self.wait_until(lambda: self._credits[key] > 0, wait=wait)
        self._credits[key] -= 1
        return key

    def send_request(self, dst: int, handler: str, payload: Any = None,
                     size: int = SHORT_PACKET_BYTES, is_read: bool = False,
                     on_reply: Optional[Callable[[Any], None]] = None,
                     ) -> Generator:
        """Issue a short request; returns its ``xfer_id``.

        Non-blocking beyond the send overhead and any window stall;
        ``on_reply(payload)`` runs when this node processes the pairing
        reply.  Use :meth:`rpc` for the common blocking pattern.
        """
        key = self._take_credit(dst)
        if key is None:
            key = yield from self._acquire_credit(dst)
        yield self._send_cost
        packet = new_packet(REQUEST, self.node_id, dst, handler=handler,
                            payload=payload, size_bytes=size,
                            is_read=is_read)
        if on_reply is not None:
            self._on_reply[packet.xfer_id] = on_reply
        self._credit_owner[packet.xfer_id] = key
        self.sent_to[dst] += 1
        self.small_bytes_sent += size
        if is_read:
            self.read_messages_sent += 1
        hook = self._on_send
        if hook is not None:
            hook(self.node_id, packet)
        self.nic.enqueue(packet)
        return packet.xfer_id

    def rpc(self, dst: int, handler: str, payload: Any = None,
            size: int = SHORT_PACKET_BYTES, is_read: bool = False,
            ) -> Generator:
        """Blocking request/response; returns the reply payload.

        Costs the issuing processor ``2 o`` (send + receive of the reply)
        plus the round trip, and the serving processor ``2 o``.
        """
        box = _ReplyBox()
        yield from self.send_request(dst, handler, payload=payload,
                                     size=size, is_read=is_read,
                                     on_reply=box.set)
        wait = None if not self.watching else \
            ("reply", (dst,), f"reply to {handler!r}")
        yield from self.wait_until(box.arrived, wait=wait)
        return box.value

    def send_oneway(self, dst: int, handler: str, payload: Any = None,
                    size: int = SHORT_PACKET_BYTES) -> Generator:
        """Fire-and-forget short message (NIC-level ack; sender pays one
        ``o``): the short form of :meth:`bulk_oneway`."""
        key = self._take_credit(dst)
        if key is None:
            key = yield from self._acquire_credit(dst)
        yield self._send_cost
        packet = new_packet(REQUEST, self.node_id, dst, handler=handler,
                            payload=payload, size_bytes=size, one_way=True)
        self._credit_owner[packet.xfer_id] = key
        self.sent_to[dst] += 1
        self.small_bytes_sent += size
        hook = self._on_send
        if hook is not None:
            hook(self.node_id, packet)
        self.nic.enqueue(packet)
        return packet.xfer_id

    # -- bulk transfers ---------------------------------------------------------
    def _enqueue_fragments(self, dst: int, handler: Optional[str],
                           payload: Any, nbytes: int, one_way: bool,
                           is_reply: bool, xfer_id: Optional[int] = None,
                           is_read: bool = False) -> Packet:
        """Queue one logical bulk message as its fragments, and count
        it; returns the last fragment."""
        sizes = fragment_sizes(nbytes)
        count = len(sizes)
        xfer = xfer_id if xfer_id is not None else new_xfer_id()
        last_packet = None
        for index, size in enumerate(sizes):
            last = index == count - 1
            packet = new_packet(BULK_FRAGMENT, self.node_id, dst,
                                handler=handler if last else None,
                                payload=payload if last else None,
                                size_bytes=size, one_way=one_way,
                                is_bulk=True, fragment=(index, count),
                                is_read=is_read, is_reply=is_reply,
                                xfer_id=xfer,
                                message_bytes=nbytes if last else None)
            self.nic.enqueue(packet)
            last_packet = packet
        self.sent_to[dst] += 1
        self.bulk_messages_sent += 1
        self.bulk_bytes_sent += nbytes
        if is_read:
            self.read_messages_sent += 1
        return last_packet

    def bulk_store(self, dst: int, handler: str, payload: Any,
                   nbytes: int,
                   on_complete: Optional[Callable[[Any], None]] = None,
                   ) -> Generator:
        """Bulk transfer to ``dst``; the handler runs there on arrival.

        Counts as one logical message occupying one window slot; the
        destination acknowledges with a short reply whose processing
        triggers ``on_complete``.  Returns the ``xfer_id``.
        """
        if nbytes <= 0:
            raise ValueError(f"bulk transfer of {nbytes} bytes")
        key = self._take_credit(dst)
        if key is None:
            key = yield from self._acquire_credit(dst)
        yield self._send_cost
        last = self._enqueue_fragments(dst, handler, payload, nbytes,
                                       one_way=False, is_reply=False)
        if on_complete is not None:
            self._on_reply[last.xfer_id] = on_complete
        self._credit_owner[last.xfer_id] = key
        hook = self._on_send
        if hook is not None:
            hook(self.node_id, last)
        return last.xfer_id

    def bulk_store_blocking(self, dst: int, handler: str, payload: Any,
                            nbytes: int) -> Generator:
        """Bulk store that waits for the destination's acknowledgement."""
        box = _ReplyBox()
        yield from self.bulk_store(dst, handler, payload, nbytes,
                                   on_complete=box.set)
        wait = None if not self.watching else \
            ("reply", (dst,), f"bulk acknowledgement from {handler!r}")
        yield from self.wait_until(box.arrived, wait=wait)
        return box.value

    def bulk_oneway(self, dst: int, handler: str, payload: Any,
                    nbytes: int) -> Generator:
        """One-way bulk transfer (NIC-level credit; no host-level ack)."""
        if nbytes <= 0:
            raise ValueError(f"bulk transfer of {nbytes} bytes")
        key = self._take_credit(dst)
        if key is None:
            key = yield from self._acquire_credit(dst)
        yield self._send_cost
        last = self._enqueue_fragments(dst, handler, payload, nbytes,
                                       one_way=True, is_reply=False)
        self._credit_owner[last.xfer_id] = key
        hook = self._on_send
        if hook is not None:
            hook(self.node_id, last)
        return last.xfer_id

    def bulk_rpc(self, dst: int, handler: str, payload: Any = None,
                 size: int = SHORT_PACKET_BYTES) -> Generator:
        """Short request whose reply is a *bulk* transfer (a GAM ``get``).

        Returns ``(payload, nbytes)`` from the :class:`Reply` the remote
        handler returned.  Flagged as a read for instrumentation.
        """
        box = _ReplyBox()
        yield from self.send_request(dst, handler, payload=payload,
                                     size=size, is_read=True,
                                     on_reply=box.set)
        wait = None if not self.watching else \
            ("reply", (dst,), f"bulk reply to {handler!r}")
        yield from self.wait_until(box.arrived, wait=wait)
        return box.value

    # -- draining ------------------------------------------------------------
    def drain(self) -> Generator:
        """Wait until every window slot is back (all sends acknowledged)."""
        wait = None
        if self.watching:
            owed = tuple(sorted(
                key for key, credits in self._credits.items()
                if credits < self.window and key >= 0))
            wait = ("drain", owed, "outstanding acknowledgements")
        # One _credit_owner entry per slot still out.
        yield from self.wait_until(lambda: not self._credit_owner, wait=wait)


class _ReplyBox:
    """Mutable cell capturing a reply payload for blocking operations."""

    __slots__ = ("value", "_arrived")

    def __init__(self) -> None:
        self.value: Any = None
        self._arrived = False

    def set(self, payload: Any) -> None:
        self.value = payload
        self._arrived = True

    def arrived(self) -> bool:
        return self._arrived
