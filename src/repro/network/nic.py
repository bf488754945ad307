"""The network interface: a model of the Myrinet LANai card.

The LANai runs two independent hardware contexts, which the paper's
apparatus exploits:

* the **transmit context** pulls packets queued by the host, DMAs a bulk
  fragment into the card, injects it onto the wire, then stalls for the
  gap (with the ``delta_g`` and ``delta_G`` dials) before injecting the
  next packet -- stalling *after* injection so latency is unaffected.
  Both times are :meth:`~repro.am.tuning.DialedCost.tx_cycle`;
* the **receive context** accepts packets from the wire and deposits them
  toward the host.  The ``delta_L`` dial is implemented here as the
  paper's *delay queue*: an arriving packet is only marked valid
  ``delta_L`` microseconds after arrival, leaving ``o`` and ``g``
  untouched.  Because the contexts are independent, a stalled transmitter
  never blocks reception.

Flow-control CREDIT packets are generated and consumed entirely inside
the NIC (never reaching the host) and bypass the transmit gap, standing
in for firmware-level acknowledgements.

When the run's :class:`~repro.network.faults.FaultPlan` can drop
packets, the NIC additionally runs a firmware-level **reliability
protocol** (think of it as the LANai's go-back-nothing ARQ):

* every injected packet -- requests, replies, bulk fragments *and*
  CREDITs -- gets a per-NIC sequence number, stable across
  retransmissions;
* the receiving NIC acks every sequenced packet immediately on arrival
  (before occupancy and the delay queue) with an ACK packet that
  bypasses the transmit gap and is never itself retransmitted;
* the sender holds retransmission state per outstanding packet: a lazy
  timer (base timeout, exponential backoff) re-enqueues the packet if
  the ack has not arrived, and raises
  :class:`~repro.network.faults.RetryExhausted` once ``max_retries``
  retransmissions go unacked -- surfacing a dead link as a structured
  failure instead of a livelock;
* the receiver suppresses duplicate sequence numbers (re-acking them,
  since a duplicate means the previous ack was probably lost), so the
  host-visible stream is exactly-once even though the wire is at-least-
  once.

With a reliable fabric (no plan, or a null plan) none of this machinery
exists: no sequence numbers, no acks, no timers -- runs are bit-identical
to a build without the protocol.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.am.tuning import DialedCost, TuningKnobs
from repro.instruments.probes import Probes
from repro.network.faults import FaultPlan, RetryExhausted
from repro.network.loggp import LogGPParams
from repro.network.packet import (ACK, BULK_FRAGMENT, CREDIT, REPLY, Packet,
                                  new_packet)
from repro.sim import Simulator

__all__ = ["Nic"]


class _Reassembly:
    """In-progress bulk transfer: distinct fragment indices seen so far,
    plus the final fragment (which carries handler/payload) if it has
    already arrived out of order."""

    __slots__ = ("indices", "last")

    def __init__(self) -> None:
        self.indices: Set[int] = set()
        self.last: Optional[Packet] = None


class _RetxState:
    """Sender-held reliability state for one unacked packet."""

    __slots__ = ("packet", "attempts", "timer_id")

    def __init__(self, packet: Packet) -> None:
        self.packet = packet
        self.attempts = 0
        #: Incremented at every injection; a pending timer only fires its
        #: retransmission if it carries the current id (lazy cancel).
        self.timer_id = 0


class _Context:
    """One LANai hardware context as bare heap entries
    (``Simulator.call_in``): a FIFO whose head packet reaches
    ``serve(packet)`` one zero-delay entry after the context is free --
    never synchronously: that deferral orders service behind everything
    already scheduled for the instant, the tie order every pinned
    ``runtime_us`` rests on (ARCHITECTURE section 13.1).  The owner calls
    :meth:`done` once the packet's service and stall are over."""

    def __init__(self, sim: Simulator,
                 serve: Callable[[Packet], None]) -> None:
        self.sim = sim
        self.serve = serve
        self.pending: Deque[Packet] = deque()  # behind the one in service
        self.busy = False

    def submit(self, packet: Packet) -> None:
        if self.busy:
            self.pending.append(packet)
        else:
            self.busy = True
            self.sim.call_in(0.0, self.serve, packet)

    def done(self, _arg: None = None) -> None:
        if self.pending:  # stays busy: submit()'s deferral, for the next
            self.sim.call_in(0.0, self.serve, self.pending.popleft())
        else:
            self.busy = False


class Nic:
    """One node's network interface card.

    Parameters
    ----------
    sim, node_id, params, knobs, wire:
        The simulator, this NIC's node id, baseline LogGP parameters,
        the tuning dials, and the fabric.
    deliver_to_host:
        Callback invoked with a :class:`Packet` when a message becomes
        visible to the host processor (the AM layer's receive queue).
    return_credit:
        Callback invoked with the original request's ``xfer_id`` when a
        flow-control credit comes back (REPLY arrival or CREDIT packet).
    faults:
        The run's :class:`~repro.network.faults.FaultPlan`; the
        reliability protocol engages only when the plan can drop packets.
    probes:
        The run's :class:`~repro.instruments.probes.Probes`; the NIC
        fires ``inject``, ``tx_busy``, ``deliver``, ``retransmit`` and
        ``duplicate``.
    """

    def __init__(self, sim: Simulator, node_id: int, params: LogGPParams,
                 knobs: TuningKnobs, wire: "Wire",  # noqa: F821
                 deliver_to_host: Callable[[Packet], None],
                 return_credit: Callable[[int], None],
                 faults: Optional[FaultPlan] = None,
                 probes: Optional[Probes] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.params = params
        self.knobs = knobs
        self.wire = wire
        self._deliver_to_host = deliver_to_host
        self._return_credit = return_credit
        if probes is None:
            probes = Probes()
        self._on_inject = probes.inject
        self._on_tx_busy = probes.tx_busy
        self._on_deliver = probes.deliver
        self._on_retransmit = probes.retransmit
        self._on_duplicate = probes.duplicate
        self.faults = faults
        self._reliable = faults is not None and faults.needs_reliability
        self._tx = _Context(sim, self._transmit)
        # With non-zero occupancy the receive context becomes a serial
        # processor: each arriving packet holds it for delta_occ before
        # entering the (possibly delayed) receive queue.
        self._rx = _Context(sim, self._occupy) \
            if knobs.delta_occ > 0 else None
        #: Nothing between the wire and ``_accept``: no ARQ, occupancy, delay.
        self._rx_direct = not (self._reliable or self._rx is not None
                               or knobs.delta_L > 0)
        #: The per-message charge (the transmit cycle's one definition);
        #: every packet but a bulk fragment has a run-constant cycle.
        self.charge = DialedCost(params, knobs)
        self._short_pre, self._short_stall = self.charge.tx_cycle(0, False)
        #: The packet whose DMA is under way (``_transmit`` scheduled it).
        self._in_dma: Optional[Packet] = None
        self._reassembly: Dict[int, _Reassembly] = {}
        self._delay_queue_depth = 0
        # -- reliability-protocol state (empty on the reliable fabric) --
        self._next_seq = 0
        self._pending_retx: Dict[Tuple[int, int], _RetxState] = {}
        self._seen_seqs: Dict[int, Set[int]] = {}
        self.retransmissions = 0
        self.duplicates_suppressed = 0
        self.acks_sent = 0
        wire.attach(node_id, self)

    # -- host-side API -----------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Host hands a packet to the NIC for transmission."""
        if packet.src != self.node_id:
            raise ValueError(
                f"packet src {packet.src} queued on NIC {self.node_id}")
        self._tx.submit(packet)

    @property
    def tx_backlog(self) -> int:
        """Packets queued behind the one in service (diagnostic)."""
        return len(self._tx.pending)

    # -- transmit context ---------------------------------------------------
    def _transmit(self, packet: Packet) -> None:
        """The LANai transmit loop: DMA, inject, stall for the gap.  A
        packet with a DMA to wait out comes back here when it is over;
        any other (a short packet, unless ``delta_occ`` is dialed) is
        injected in this first frame."""
        if packet.kind is BULK_FRAGMENT:
            pre_time, stall = self.charge.tx_cycle(packet.size_bytes, True)
        else:
            pre_time, stall = self._short_pre, self._short_stall
        if pre_time > 0:
            if self._in_dma is not packet:
                self._in_dma = packet
                self.sim.call_in(pre_time, self._transmit, packet)
                return
            self._in_dma = None
        hook = self._on_inject
        if hook is not None:
            hook(self.node_id, packet)
        if self._reliable:
            self._inject(packet)
        else:
            self.wire.carry(packet)
        hook = self._on_tx_busy
        if hook is not None:
            # DMA + injection stall: the transmit-busy fraction's numerator.
            hook(self.node_id, pre_time + stall)
        if stall > 0:
            self.sim.call_in(stall, self._tx.done)
        else:
            self._tx.done()

    # -- reliability protocol: sender side ----------------------------------
    def _inject(self, packet: Packet) -> None:
        """Put a packet on the wire, arming retransmission if needed."""
        if self._reliable and packet.kind is not ACK:
            self._arm_retransmit(packet)
        self.wire.carry(packet)

    def _arm_retransmit(self, packet: Packet) -> None:
        if packet.seq is None:
            packet.seq = self._next_seq
            self._next_seq += 1
            state = _RetxState(packet)
            self._pending_retx[(packet.dst, packet.seq)] = state
        else:
            state = self._pending_retx.get((packet.dst, packet.seq))
            if state is None:
                # Acked while a retransmitted copy sat in the transmit
                # queue; the receiver will just suppress the duplicate.
                return
        state.timer_id += 1
        delay = self.faults.retx_timeout_us * \
            (self.faults.retx_backoff ** state.attempts)
        self.sim.call_in(delay, self._retx_timer_fired,
                         (packet, state.timer_id))

    def _retx_timer_fired(self, armed: Tuple[Packet, int]) -> None:
        packet, timer_id = armed
        state = self._pending_retx.get((packet.dst, packet.seq))
        if state is None or state.timer_id != timer_id:
            return  # acked, or superseded by a later injection's timer
        if state.attempts >= self.faults.max_retries:
            raise RetryExhausted(packet.src, packet.dst, packet.xfer_id,
                                 packet.seq, state.attempts)
        state.attempts += 1
        self.retransmissions += 1
        hook = self._on_retransmit
        if hook is not None:
            hook(self.node_id, packet)
        if packet.kind is CREDIT:
            # CREDITs bypass the transmit context on first send; they do
            # on retransmit too.
            self._inject(packet)
        else:
            self.enqueue(packet)

    def _ack_received(self, ack: Packet) -> None:
        # A stale ack (for a packet already acked via an earlier copy)
        # finds no state and is simply ignored.
        self._pending_retx.pop((ack.src, ack.payload), None)

    # -- reliability protocol: receiver side ---------------------------------
    def _send_ack(self, packet: Packet) -> None:
        """Firmware-level ack: straight onto the wire, no gap, never
        retransmitted (a lost ack is recovered by the sender's
        retransmission, which is then re-acked here)."""
        self.acks_sent += 1
        ack = new_packet(ACK, self.node_id, packet.src, payload=packet.seq,
                         size_bytes=8)
        self.wire.carry(ack)

    # -- receive context ----------------------------------------------------
    def receive_from_wire(self, packet: Packet) -> None:
        """Wire delivery point: reliability bookkeeping first (acks and
        duplicate suppression are firmware-level), then occupancy (if
        dialed), then the delay queue for ``delta_L``."""
        if self._rx_direct:
            self._accept(packet)
            return
        if self._reliable:
            if packet.kind is ACK:
                self._ack_received(packet)
                return
            if packet.seq is not None:
                seen = self._seen_seqs.setdefault(packet.src, set())
                if packet.seq in seen:
                    self.duplicates_suppressed += 1
                    hook = self._on_duplicate
                    if hook is not None:
                        hook(self.node_id, packet)
                    self._send_ack(packet)
                    return
                seen.add(packet.seq)
                self._send_ack(packet)
        if self._rx is not None:
            self._rx.submit(packet)
            return
        self._after_occupancy(packet)

    def _occupy(self, packet: Packet) -> None:
        """Serial receive-context processing under dialed occupancy."""
        self.sim.call_in(self.knobs.delta_occ, self._occupied, packet)

    def _occupied(self, packet: Packet) -> None:
        self._after_occupancy(packet)
        self._rx.done()

    def _after_occupancy(self, packet: Packet) -> None:
        if self.knobs.delta_L > 0:
            self._delay_queue_depth += 1
            self.sim.call_in(self.knobs.delta_L, self._mark_valid, packet)
        else:
            self._accept(packet)

    def _mark_valid(self, packet: Packet) -> None:
        self._delay_queue_depth -= 1
        self._accept(packet)

    def _accept(self, packet: Packet) -> None:
        """Process a packet that is now valid in the receive queue."""
        kind = packet.kind
        if kind is CREDIT:
            self._return_credit(packet.payload)
            return
        if kind is BULK_FRAGMENT:
            self._accept_fragment(packet)
            return
        if kind is REPLY:
            self._return_credit(packet.xfer_id)
        elif packet.one_way:  # a REQUEST nobody answers at host level
            self._send_nic_credit(packet)
        hook = self._on_deliver
        if hook is not None:
            hook(self.node_id, packet)
        self._deliver_to_host(packet)

    def _accept_fragment(self, packet: Packet) -> None:
        """Reassemble bulk fragments; deliver once every *distinct*
        index has arrived.

        Tracking distinct indices (not a packet count) keeps a
        duplicated or reordered fragment from completing a transfer
        early with missing data; the final fragment is stashed if it
        arrives out of order, because it alone carries the handler and
        payload for delivery.
        """
        index, count = packet.fragment
        entry = self._reassembly.get(packet.xfer_id)
        if entry is None:
            entry = self._reassembly[packet.xfer_id] = _Reassembly()
        entry.indices.add(index)
        if index == count - 1:
            entry.last = packet
        if len(entry.indices) < count:
            return
        final = entry.last
        del self._reassembly[packet.xfer_id]
        if final.one_way:
            self._send_nic_credit(final)
        elif final.is_reply:
            # A bulk reply completes a request: the window credit its
            # request took comes back here, as for a short REPLY.
            self._return_credit(final.xfer_id)
        hook = self._on_deliver
        if hook is not None:
            hook(self.node_id, final)
        self._deliver_to_host(final)

    def reassembly_teardown(self) -> int:
        """Drop in-progress reassembly state at end of run.

        Returns the number of transfers that never completed (leaked
        entries) -- zero on a reliable fabric, and a useful diagnostic
        once packets can be lost.
        """
        leaked = len(self._reassembly)
        self._reassembly.clear()
        return leaked

    def _send_nic_credit(self, packet: Packet) -> None:
        """Firmware-level flow-control ack: straight back onto the wire,
        bypassing our transmit context (the LANai's dual-context
        property) and never touching the host.  Under a lossy plan the
        CREDIT is sequenced and retransmitted like any data packet."""
        credit = new_packet(CREDIT, self.node_id, packet.src,
                            payload=packet.xfer_id, size_bytes=8)
        self._inject(credit)

    @property
    def delay_queue_depth(self) -> int:
        """Packets currently held by the latency delay queue."""
        return self._delay_queue_depth
