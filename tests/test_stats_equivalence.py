"""Differential equivalence: ``ClusterStats``' list-backed per-message
counters vs. the numpy scalar updates they replaced.

Inside the measured region ``on_send`` / ``on_recv`` / ``on_tx_busy``
count in plain Python lists and fold the totals into the public numpy
arrays when those are read.  The all-numpy hooks live on here, as
:class:`NumpyStats`, in the role ``LegacyNic`` plays for the NIC
(``test_nic_tx_equivalence.py``): the reference the fast path may only
be *cheaper* than.  Hypothesis drives both with the same hook sequence
-- short, bulk and read messages, hooks before ``start_measurement`` and
after ``stop_measurement``, restarts, arrays and ``to_dict()`` read
mid-sequence, ``from_dict(to_dict())`` round trips followed by more
hooks -- and demands identical ``to_dict()`` (so identical JSON bytes),
identical dtype and shape of every public array, and ``tx_busy_us``
equal bit for bit: the same IEEE additions in the same order.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.instruments import ClusterStats
from repro.network.packet import PacketKind, new_packet

N_NODES = 4
ARRAYS = ClusterStats._ARRAY_FIELDS + ClusterStats._FLOAT_ARRAY_FIELDS


class NumpyStats(ClusterStats):
    """``ClusterStats`` as it was: the arrays are the counters."""

    def start_measurement(self, now):
        self.started_at = now
        self.enabled = True

    def stop_measurement(self, now):
        self.finished_at = now
        self.enabled = False

    def _fold(self):
        """Nothing to fold; reads return the arrays as they stand."""

    def on_send(self, node_id, packet):
        if not self.enabled:
            return
        self.messages_sent[node_id] += 1
        self.matrix[node_id, packet.dst] += 1
        if packet.is_bulk:
            self.bulk_messages_sent[node_id] += 1
            self.bulk_bytes_sent[node_id] += packet.logical_bytes
        else:
            self.small_bytes_sent[node_id] += packet.logical_bytes
        if packet.is_read:
            self.read_messages_sent[node_id] += 1

    def on_recv(self, node_id, packet):
        if not self.enabled:
            return
        self.messages_received[node_id] += 1

    def on_tx_busy(self, node_id, busy_us):
        if not self.enabled:
            return
        self.tx_busy_us[node_id] += busy_us


def _packet(src, hop, nbytes, is_read):
    dst = (src + hop) % N_NODES
    if nbytes is None:
        return new_packet(PacketKind.REQUEST, src, dst,
                          is_read=is_read)
    return new_packet(PacketKind.BULK_FRAGMENT, src, dst,
                      is_bulk=True, is_read=is_read, fragment=(0, 1),
                      size_bytes=min(nbytes, 4096), message_bytes=nbytes)


NODES = st.integers(0, N_NODES - 1)
PACKETS = st.builds(_packet, NODES, st.integers(1, N_NODES - 1),
                    st.one_of(st.none(), st.integers(1, 10 ** 6)),
                    st.booleans())
#: Fragment DMA times (bytes times ``G``): mantissas full enough that
#: three of them often add up differently in a different order.  Two
#: nodes only, so that they pile up on one entry.
TX = st.tuples(st.just("tx"), st.integers(0, 1),
               st.integers(0, 4096).map(lambda size: size * 0.0263))
HOOKS = st.one_of(
    st.tuples(st.just("send"), PACKETS),
    st.tuples(st.just("recv"), NODES),
    TX, TX,
    st.tuples(st.just("barrier"), NODES))
LOOKS = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(ARRAYS)),
    st.tuples(st.just("to_dict")),
    st.tuples(st.just("round-trip")),
    st.tuples(st.just("stop"), st.floats(0.0, 1e6)),
    st.tuples(st.just("start"), st.floats(0.0, 1e6)))
#: A few hooks, then a look at the counters, and so on: what a fold
#: must survive is a read *between* two additions to one entry.
PROGRAMS = st.lists(st.tuples(st.lists(HOOKS, max_size=6), LOOKS),
                    max_size=12)


def _assert_same(new, old):
    fresh, reference = new.to_dict(), old.to_dict()
    assert fresh == reference
    assert json.dumps(fresh) == json.dumps(reference)
    for name in ARRAYS:
        ours, theirs = getattr(new, name), getattr(old, name)
        assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
        assert ours.tobytes() == theirs.tobytes()


@given(measuring=st.booleans(), program=PROGRAMS)
@settings(max_examples=300, deadline=None)
def test_list_backed_counters_match_the_numpy_ones(measuring, program):
    new, old = ClusterStats(N_NODES), NumpyStats(N_NODES)
    ops = [("start", 0.0)] if measuring else []
    for hooks, look in program:
        ops += hooks + [look]
    for op, *args in ops:
        if op == "send":
            new.on_send(args[0].src, args[0])
            old.on_send(args[0].src, args[0])
        elif op == "recv":
            packet = _packet((args[0] + 1) % N_NODES, N_NODES - 1, None,
                             False)
            new.on_recv(args[0], packet)
            old.on_recv(args[0], packet)
        elif op == "tx":
            new.on_tx_busy(*args)
            old.on_tx_busy(*args)
        elif op == "barrier":  # an array-backed hook, interleaved
            new.on_barrier(*args)
            old.on_barrier(*args)
        elif op == "start":
            new.start_measurement(*args)
            old.start_measurement(*args)
        elif op == "stop":
            new.stop_measurement(*args)
            old.stop_measurement(*args)
        elif op == "read":
            ours, theirs = getattr(new, args[0]), getattr(old, args[0])
            assert ours.tobytes() == theirs.tobytes()
        elif op == "to_dict":
            assert new.to_dict() == old.to_dict()
        else:
            measuring = new.enabled
            new = ClusterStats.from_dict(new.to_dict())
            old = NumpyStats.from_dict(old.to_dict())
            if measuring:  # so that the hooks that follow still count
                new.start_measurement(new.started_at)
                old.start_measurement(old.started_at)
    _assert_same(new, old)


def test_a_read_inside_the_measured_region_is_current():
    """The arrays stay readable at any moment of a run, and a held
    reference catches up at the next read."""
    stats = ClusterStats(N_NODES)
    stats.start_measurement(0.0)
    held = stats.messages_sent
    stats.on_send(1, _packet(1, 1, None, False))
    assert stats.messages_sent[1] == 1 and stats.matrix[1, 2] == 1
    stats.on_send(1, _packet(1, 1, 5000, True))
    assert held is stats.messages_sent and held[1] == 2
    assert stats.bulk_bytes_sent[1] == 5000
    stats.stop_measurement(9.0)
    assert stats.total_messages == 2 and stats.read_messages_sent[1] == 1
