"""Unit tests for LogGPParams, packets, wire, NIC, and TuningKnobs."""

import math

import pytest

from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams
from repro.network.packet import (BULK_FRAGMENT_BYTES, PacketKind,
                                  new_packet, new_xfer_id)
from repro.network.wire import Wire
from repro.cluster.presets import MACHINE_PRESETS, preset
from repro.sim import Simulator


# -- LogGPParams ---------------------------------------------------------------

def test_berkeley_now_matches_table1():
    now = LogGPParams.berkeley_now()
    assert now.overhead == pytest.approx(2.9)
    assert now.gap == 5.8
    assert now.latency == 5.0
    assert now.bulk_bandwidth_mb_s == pytest.approx(38.0)


def test_paragon_and_meiko_match_table1():
    paragon = LogGPParams.intel_paragon()
    assert paragon.bulk_bandwidth_mb_s == pytest.approx(141.0)
    meiko = LogGPParams.meiko_cs2()
    assert meiko.gap == 13.6


def test_capacity_is_ceil_L_over_g():
    params = LogGPParams(latency=20.0, gap=6.0)
    assert params.capacity == 4
    assert LogGPParams(latency=1.0, gap=6.0).capacity == 1


def test_with_changes_is_pure():
    now = LogGPParams.berkeley_now()
    slower = now.with_changes(latency=50.0)
    assert slower.latency == 50.0
    assert now.latency == 5.0


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        LogGPParams(latency=-1.0)
    with pytest.raises(ValueError):
        LogGPParams(gap=0.0)


def test_describe_is_informative():
    text = LogGPParams.berkeley_now().describe()
    assert "o=2.9" in text and "38MB/s" in text


# -- presets --------------------------------------------------------------------

def test_preset_lookup():
    assert preset("berkeley-now") == LogGPParams.berkeley_now()
    with pytest.raises(KeyError):
        preset("cray-t3e")
    assert "lan-tcp" in MACHINE_PRESETS


# -- packets ----------------------------------------------------------------------

def test_packet_to_self_rejected():
    with pytest.raises(ValueError):
        new_packet(PacketKind.REQUEST, 3, 3)


def test_fragment_size_limit():
    with pytest.raises(ValueError):
        new_packet(PacketKind.BULK_FRAGMENT, 0, 1,
                   size_bytes=BULK_FRAGMENT_BYTES + 1, fragment=(0, 1))


def test_fragment_index_validation():
    with pytest.raises(ValueError):
        new_packet(PacketKind.BULK_FRAGMENT, 0, 1,
                   size_bytes=10, fragment=(2, 2))


@pytest.mark.parametrize("kind", [PacketKind.REQUEST,
                                  PacketKind.BULK_FRAGMENT])
@pytest.mark.parametrize("size_bytes", [float("nan"), float("inf"), 0, -1])
def test_packet_size_must_be_finite_and_positive(kind, size_bytes):
    # NaN used to pass the `<= 0` check.
    with pytest.raises(ValueError, match="size_bytes"):
        new_packet(kind, 0, 1, size_bytes=size_bytes)


def test_logical_bytes_prefers_message_bytes():
    packet = new_packet(PacketKind.BULK_FRAGMENT, 0, 1,
                        size_bytes=100, message_bytes=9000, fragment=(1, 2))
    assert packet.logical_bytes == 9000
    assert packet.is_last_fragment


def test_xfer_ids_are_unique():
    ids = {new_xfer_id() for _ in range(100)}
    assert len(ids) == 100


# -- wire -------------------------------------------------------------------------

class _StubNic:
    def __init__(self):
        self.received = []

    def receive_from_wire(self, packet):
        self.received.append(packet)


def test_wire_delivers_after_latency():
    sim = Simulator()
    wire = Wire(sim, latency=7.5)
    nic = _StubNic()
    wire.attach(1, nic)
    packet = new_packet(PacketKind.REQUEST, 0, 1)
    wire.carry(packet)
    assert nic.received == []
    sim.run()
    assert sim.now == 7.5
    assert nic.received == [packet]


def test_wire_unattached_destination_errors():
    sim = Simulator()
    wire = Wire(sim, latency=1.0)
    with pytest.raises(KeyError):
        wire.carry(new_packet(PacketKind.REQUEST, 0, 9))


def test_wire_double_attach_rejected():
    sim = Simulator()
    wire = Wire(sim, latency=1.0)
    wire.attach(0, _StubNic())
    with pytest.raises(ValueError):
        wire.attach(0, _StubNic())


# -- tuning knobs ------------------------------------------------------------------

def test_knobs_baseline_detection():
    assert TuningKnobs().is_baseline
    assert not TuningKnobs(delta_o=1.0).is_baseline


def test_knobs_reject_negative():
    with pytest.raises(ValueError):
        TuningKnobs(delta_L=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, field", [
    (TuningKnobs, name) for name in
    ("delta_o", "delta_g", "delta_L", "delta_G", "delta_occ")] + [
    (LogGPParams, name) for name in
    ("latency", "send_overhead", "recv_overhead", "gap", "Gap")])
def test_non_finite_dials_are_refused(cls, field, value):
    """A NaN dial used to run silently (``delta_g=nan`` even dropped the
    baseline gap: ``stall > 0`` is False); now it names its field."""
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


def test_knobs_describe():
    assert TuningKnobs().describe() == "baseline"
    assert "+o=5.0us" in TuningKnobs(delta_o=5.0).describe()


def test_bulk_bandwidth_dial_rejects_nonpositive():
    base = LogGPParams.berkeley_now()
    for mb_per_s in (0.0, math.nan):
        with pytest.raises(ValueError):
            TuningKnobs.bulk_bandwidth(mb_per_s, base)
    assert TuningKnobs.bulk_bandwidth(math.inf, base).is_baseline
