"""Structural gate: the message path stays off two interpreter slow paths.

Reading ``PacketKind.REQUEST`` goes through the enum metaclass's
``__getattr__`` hook, several times slower than reading a module
global, and the message path compares packet kinds several times per
message.  So ``network/packet.py`` binds the five members once as
module-level names (``REQUEST``, ``REPLY``, ``CREDIT``,
``BULK_FRAGMENT``, ``ACK``) and no function under ``src/repro`` reads
``PacketKind.<member>``; binding one at module level is allowed.

A keyword call to a class packs an argument tuple and a keyword dict
before ``__init__`` runs; one packet is built per message, so packets
are built by the plain function ``new_packet`` and ``Packet(...)``
refuses, as a handler's ``Reply(...)`` is a function and its result
type refuses a direct call.  ``scripts/calls_per_message.py`` sees
neither cost (an enum read is not a call; the packing is C work inside
the one ``__init__`` it counts), which is why this gate exists.  Walks
the source with ``ast``, like ``test_no_event_nobody_waits_on.py``.
"""

import ast
from pathlib import Path

import pytest

from repro.am.layer import HandlerReply, Reply
from repro.network.packet import Packet, PacketKind, new_packet

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def test_no_function_reads_a_packet_kind_member():
    members = set(PacketKind.__members__)
    checked = 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if not isinstance(function, FUNCTIONS):
                continue
            for node in ast.walk(function):
                checked += 1
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "PacketKind":
                    assert node.attr not in members, (
                        f"{path.relative_to(SRC).as_posix()}:{node.lineno} "
                        f"reads PacketKind.{node.attr} in a function; "
                        f"use network.packet.{node.attr}")
    assert checked > 50_000, "scan found next to nothing: the gate is blind"


def test_packets_and_replies_are_built_by_functions():
    with pytest.raises(TypeError, match="new_packet"):
        Packet(kind=PacketKind.REQUEST, src=0, dst=1)
    with pytest.raises(TypeError, match="Reply"):
        HandlerReply("value", service_us=1.0)
    packet = new_packet(PacketKind.REQUEST, 0, 1)
    assert type(packet) is Packet
    assert (packet.seq, packet.clock) == (None, None)
    assert type(Reply("value")) is HandlerReply
