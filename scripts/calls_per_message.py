#!/usr/bin/env python3
"""Calls per message over the ``suite32_cold`` round, by layer.

The counter behind ARCHITECTURE section 7's calls-per-message table: the
ten-app suite, each app one cold ``Cluster(32, seed=13).run(app)`` at
scale 0.125 (the ledger's ``suite32_cold`` round), under cProfile with
the collector off.  Every call the profiler sees is counted -- Python
and builtin -- from its raw entries, one per code object (``pstats``
merges code objects that share a ``(file, line, name)`` label, every
dataclass's generated ``__init__`` among them).  A call into code
outside ``src/repro`` (a builtin, numpy, the stdlib) is charged to the
row of the function that made it; ``am/layer.py`` and ``network/nic.py``
are split between two rows each by function name.  No timing enters:
the counts are a function of the seed.

Usage:
    PYTHONPATH=src python scripts/calls_per_message.py
        [--nodes 32] [--scale 0.125] [--seed 13]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
from collections import defaultdict
from typing import Dict, Iterable, Optional

import repro
from repro import Cluster
from repro.harness import suite_for

_REPRO = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

KERNEL = "kernel heap/timeout (sim/engine.py, sim/events.py)"
PROCESS = "process resume (sim/process.py)"
NIC_TX = "NIC transmit (enqueue ... _tx.done)"
WIRE_RX = "wire + NIC receive"
AM_SEND = "AM send (incl. Packet construction)"
AM_WAIT = "AM service/wait"
COUNTERS = "counters (instruments/stats.py)"
REST = "apps, GAS, collectives, rank driver"
ROWS = (KERNEL, PROCESS, NIC_TX, WIRE_RX, AM_SEND, AM_WAIT, COUNTERS, REST)

#: ``network/nic.py`` functions on the receive side; the rest transmit.
NIC_RECEIVE = frozenset({
    "receive_from_wire", "_occupy", "_occupied", "_after_occupancy",
    "_mark_valid", "_accept", "_accept_fragment", "_send_nic_credit",
    "_send_ack", "_ack_received"})
#: ``am/layer.py`` functions that send; the rest service and wait
#: (``_record_send`` went with PR 23: named so a parent splits alike).
AM_SENDING = frozenset({
    "send_request", "send_oneway", "rpc", "bulk_store",
    "bulk_store_blocking", "bulk_oneway", "bulk_rpc", "reply",
    "reply_bulk", "fragment_count", "_enqueue_fragments",
    "_take_current_request", "_take_credit", "_acquire_credit",
    "_credit_key", "_record_send"})


def row_of(code) -> Optional[str]:
    """The table row owning a code object; None for foreign code
    (builtins appear as strings, not code objects)."""
    if isinstance(code, str) or not code.co_filename.startswith(_REPRO):
        return None
    module = code.co_filename[len(_REPRO):].replace(os.sep, "/")
    if module in ("sim/engine.py", "sim/events.py"):
        return KERNEL
    if module == "sim/process.py":
        return PROCESS
    if module == "network/nic.py":
        return WIRE_RX if code.co_name in NIC_RECEIVE else NIC_TX
    if module == "network/wire.py":
        return WIRE_RX
    if module == "network/packet.py":
        return AM_SEND
    if module == "am/layer.py":
        return AM_SEND if code.co_name in AM_SENDING else AM_WAIT
    if module == "instruments/stats.py":
        return COUNTERS
    return REST


def fold(entries: Iterable) -> Dict[str, float]:
    """Calls per row from ``cProfile.Profile.getstats()``.  A foreign
    callee's calls are known per caller (the sub-entries): each goes to
    that caller's row, and when the caller is foreign too the blame
    walks up, split by how often each of *its* callers called it."""
    entries = list(entries)
    callers = defaultdict(list)
    for entry in entries:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.callcount))
    memo: Dict[object, Dict[str, float]] = {}

    def blame(code, walking: frozenset) -> Dict[str, float]:
        row = row_of(code)
        if row is not None:
            return {row: 1.0}
        if code in memo:
            return memo[code]
        edges = [(caller, count) for caller, count in callers[code]
                 if caller not in walking]
        total = sum(count for _caller, count in edges)
        shares: Dict[str, float] = defaultdict(float)
        if total <= 0:  # the profile's root
            shares[REST] = 1.0
        for caller, count in edges:
            for row, share in blame(caller, walking | {code}).items():
                shares[row] += share * count / total
        memo[code] = dict(shares)
        return memo[code]

    calls: Dict[str, float] = defaultdict(float)
    for entry in entries:
        for row, share in blame(entry.code, frozenset()).items():
            calls[row] += entry.callcount * share
    return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=32)
    parser.add_argument("--scale", type=float, default=0.125)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)

    def round_():
        return [Cluster(args.nodes, seed=args.seed).run(app)
                for app in suite_for(args.nodes, scale=args.scale)]

    round_()  # pays the lazy imports; not counted
    profile = cProfile.Profile()
    gc.disable()
    try:
        results = profile.runcall(round_)
    finally:
        gc.enable()
    entries = profile.getstats()
    messages = sum(result.stats.total_messages for result in results)
    events = sum(result.events_processed for result in results)
    total = sum(entry.callcount for entry in entries)
    calls = fold(entries)
    assert abs(sum(calls.values()) - total) < 1e-6 * total, \
        "a call was charged to no row, or to two"
    print(f"# {args.nodes} nodes, scale {args.scale}, seed {args.seed}: "
          f"{total} calls / {messages} messages, {events} events")
    print("| layer | calls per message |")
    print("|---|---|")
    for row in ROWS:
        print(f"| {row} | {calls[row] / messages:.2f} |")
    print(f"| **total** | **{total / messages:.2f}** |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
