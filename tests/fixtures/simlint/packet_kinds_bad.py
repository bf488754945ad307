"""Bad fixture: functions read PacketKind.<member>."""
from repro.network.packet import PacketKind


def is_request(packet):
    return packet.kind is PacketKind.REQUEST  # packet-kind-member


def acks(packets):
    return [p for p in packets if p.kind is PacketKind.ACK]  # the same
