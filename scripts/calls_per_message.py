#!/usr/bin/env python3
"""Calls per message over the ``suite32_cold`` round, by layer; with
``--serve``, over the ``serve_knee`` KV point instead.

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
the counts are a function of the seed.  The total is exact; a row is
exact but for foreign code called from more than one row *through*
other foreign code (numpy internals, ``copy``), whose calls the profile
only knows per caller, not per path, and which are split in proportion.

``--serve`` counts one cold ``Cluster(32, seed=13)`` run of the
``serve_knee`` workload's KV point at the baseline overhead (``KVServe``
at its default 200,000 req/s offered, a million users, at most 4,000
requests: 3,892 arrive in its window) and adds a ``serve`` row
(``serve/*.py``: the serving app, the client tier and the SLO
instruments) and a calls-per-request line.

Usage (it prints the table the docs cite):
    PYTHONPATH=src python scripts/calls_per_message.py [--serve]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
from collections import defaultdict
from typing import Dict, Iterable, List, Optional

import repro
from repro import Cluster
from repro.harness import suite_for
from repro.serve import KVServe

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
#: The extra row of ``--serve``; a suite round calls nothing in it.
SERVE = "serve (serving app, client tier, SLO instruments)"
#: The seed of every published number (section 7, the ledger's pins).
SEED = 13

#: ``network/nic.py`` functions on the receive side; the rest transmit.
NIC_RECEIVE = frozenset({
    "receive_from_wire", "_occupy", "_occupied", "_after_occupancy",
    "_mark_valid", "_accept", "_accept_fragment", "_send_nic_credit",
    "_send_ack", "_ack_received"})
#: ``am/layer.py`` functions that send; the rest service and wait.
#: ``_record_send``, ``reply``, ``reply_bulk``, ``_take_current_request``
#: and ``fragment_count`` are gone, named so that an older tree splits alike.
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
    if module == "am/tuning.py":  # DialedCost.tx_cycle, per bulk fragment
        return NIC_TX
    if module == "network/wire.py":
        return WIRE_RX
    if module == "network/packet.py":
        return AM_SEND
    if module == "am/layer.py":
        return AM_SEND if code.co_name in AM_SENDING else AM_WAIT
    if module == "instruments/stats.py":
        return COUNTERS
    if module.startswith("serve/"):
        return SERVE
    return REST


def fold(entries: Iterable) -> Dict[str, float]:
    """Calls per row from ``cProfile.Profile.getstats()``.  A foreign
    callee's calls are known per caller (the sub-entries): each goes to
    that caller's row, and when the caller is foreign too it takes the
    caller's own split.  Foreign code may recurse, so the splits are the
    fixed point of that rule, iterated until they stop moving; a cycle
    nothing outside calls into keeps no share, which ``count`` catches.
    """
    entries = list(entries)
    callers = defaultdict(list)
    for entry in entries:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.callcount))
    shares: Dict[object, Dict[str, float]] = {}
    foreign: List[object] = []
    for entry in entries:
        row = row_of(entry.code)
        if row is not None:
            shares[entry.code] = {row: 1.0}
        elif sum(count for _caller, count in callers[entry.code]) <= 0:
            shares[entry.code] = {REST: 1.0}  # the profile's root
        else:
            shares[entry.code] = {}
            foreign.append(entry.code)
    moved = 1.0
    while moved > 1e-12:
        moved = 0.0
        for code in foreign:
            total = sum(count for _caller, count in callers[code])
            split: Dict[str, float] = defaultdict(float)
            for caller, count in callers[code]:
                for row, share in shares[caller].items():
                    split[row] += share * count / total
            moved = max(moved, max(
                abs(split[row] - shares[code].get(row, 0.0))
                for row in ROWS + (SERVE,)))
            shares[code] = split
    calls: Dict[str, float] = defaultdict(float)
    for entry in entries:
        for row, share in shares[entry.code].items():
            calls[row] += entry.callcount * share
    return calls


def count(nodes: int = 32, scale: float = 0.125,
          requests: Optional[int] = None) -> str:
    """The table, as markdown, for one round of the suite (the defaults
    are the ``suite32_cold`` round; the smoke test passes smaller), or
    with ``requests`` for the ``serve_knee`` KV point of that many
    requests (``--serve`` passes 4,000)."""
    if requests is None:
        apps = suite_for(nodes, scale=scale)
    else:
        apps = [KVServe(n_users=1_000_000, slo_us=250.0, service_us=4.0,
                        max_requests=requests)]

    def round_():
        return [Cluster(nodes, seed=SEED).run(app) for app in apps]

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
    rows = ROWS
    if requests is None:
        what = f"scale {scale}"
    else:
        rows += (SERVE,)
        served = sum(result.stats.serving.arrivals for result in results)
        what = f"KVServe, {served} requests"
    lines = [f"# {nodes} nodes, {what}, seed {SEED}: "
             f"{total} calls / {messages} messages, {events} events",
             "| layer | calls per message |", "|---|---|"]
    lines += [f"| {row} | {calls[row] / messages:.2f} |" for row in rows]
    lines.append(f"| **total** | **{total / messages:.2f}** |")
    if requests is not None:
        lines.append(f"\n{total / served:.2f} calls per request "
                     f"(serve row: {calls[SERVE] / served:.2f})")
    return "\n".join(lines)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Calls per message over the suite32_cold round, by "
                    "layer (ARCHITECTURE section 7).")
    parser.add_argument("--serve", action="store_true",
                        help="count the serve_knee KV point, not the suite")
    print(count(requests=4000) if parser.parse_args().serve else count())
