"""Good twin: a member is bound once at module level and read by name."""
from repro.network.packet import PacketKind

REQUEST = PacketKind.REQUEST


def is_request(packet):
    return packet.kind is REQUEST and packet.kind in PacketKind
