"""Microbenchmarks as first-class applications.

The calibration suite (:mod:`repro.calibrate`) runs directly on bare AM
endpoints; these wrap the same access patterns as
:class:`~repro.apps.base.Application` so they go through the full
Cluster runner — picking up statistics, balance matrices, and message
tracing like any real program.  Useful as minimal workloads when
exploring a new machine configuration.

* :class:`PingPong` -- rank 0 ↔ rank 1 blocking echoes; reports RTT.
* :class:`BurstSender` -- every rank fires a fixed-rate or maximal-rate
  burst at its ring neighbour (the Figure 3 pattern, cluster-wide).
* :class:`BulkStream` -- every rank streams bulk data to its neighbour;
  reports achieved bandwidth.
"""

from __future__ import annotations

from typing import Generator, List

from repro.am.layer import HandlerTable
from repro.apps.base import Application
from repro.gas.runtime import Proc

__all__ = ["PingPong", "BurstSender", "BulkStream"]


def _echo(am, packet):
    am.host.state["mb_echoed"] = am.host.state.get("mb_echoed", 0) + 1
    return packet.payload


def _sink(am, packet):
    am.host.state.setdefault("mb_received", 0)
    am.host.state["mb_received"] += 1
    return None


class PingPong(Application):
    """Blocking request/response between ranks 0 and 1.

    ``finalize`` returns the mean round trip in µs — the model predicts
    ``2L + 4o`` on an idle machine.
    """

    name = "PingPong"

    def __init__(self, repeats: int = 32, spacing_us: float = 100.0):
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        self.repeats = repeats
        self.spacing_us = spacing_us

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("mb_echo", _echo)

    def run_rank(self, proc: Proc) -> Generator:
        if proc.n_ranks < 2 or proc.rank > 1:
            return
        if proc.rank == 0:
            total = 0.0
            for i in range(self.repeats):
                yield from proc.compute(self.spacing_us)
                yield from proc.poll()
                start = proc.sim.now
                yield from proc.am.rpc(1, "mb_echo", i)
                total += proc.sim.now - start
            proc.state["rtt_us"] = total / self.repeats
        else:
            # Serve echoes until the pinger has had every round trip.
            yield from proc.am.wait_until(
                lambda: proc.state.get("mb_echoed", 0) >= self.repeats)

    def finalize(self, procs: List[Proc]) -> float:
        return procs[0].state.get("rtt_us", 0.0)


class BurstSender(Application):
    """Every rank sends ``n_messages`` to its ring neighbour, either at
    a fixed pacing interval or flat out (the burst/uniform dichotomy of
    Section 5.2).  With ``all_peers`` the messages go round-robin to
    every other rank instead, the all-to-all pattern of the sorts'
    distribution phases.  ``finalize`` returns the mean initiation
    interval."""

    name = "BurstSender"

    def __init__(self, n_messages: int = 64, interval_us: float = 0.0,
                 all_peers: bool = False):
        if n_messages < 1:
            raise ValueError("n_messages must be >= 1")
        if interval_us < 0:
            raise ValueError("interval_us must be >= 0")
        self.n_messages = n_messages
        self.interval_us = interval_us
        self.all_peers = all_peers

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("mb_sink", _sink)

    def run_rank(self, proc: Proc) -> Generator:
        if proc.n_ranks < 2:
            return
        peers = ([(proc.rank + k) % proc.n_ranks
                  for k in range(1, proc.n_ranks)]
                 if self.all_peers else [(proc.rank + 1) % proc.n_ranks])
        start = proc.sim.now
        for i in range(self.n_messages):
            if self.interval_us:
                yield from proc.compute(self.interval_us)
            yield from proc.poll()
            yield from proc.am.send_request(peers[i % len(peers)],
                                            "mb_sink", i)
        proc.state["interval_us"] = \
            (proc.sim.now - start) / self.n_messages
        yield from proc.am.drain()

    def finalize(self, procs: List[Proc]) -> float:
        intervals = [p.state.get("interval_us", 0.0) for p in procs]
        return sum(intervals) / len(intervals)


class BulkStream(Application):
    """Every rank streams ``total_bytes`` in ``message_bytes`` one-way
    bulk messages to its ring neighbour; ``finalize`` returns the mean
    achieved bandwidth in MB/s."""

    name = "BulkStream"

    def __init__(self, total_bytes: int = 262_144,
                 message_bytes: int = 16_384):
        if total_bytes < message_bytes or message_bytes < 1:
            raise ValueError(
                "need total_bytes >= message_bytes >= 1")
        self.total_bytes = total_bytes
        self.message_bytes = message_bytes

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("mb_bulk_sink", _sink)

    def run_rank(self, proc: Proc) -> Generator:
        if proc.n_ranks < 2:
            return
        peer = (proc.rank + 1) % proc.n_ranks
        start = proc.sim.now
        sent = 0
        while sent < self.total_bytes:
            size = min(self.message_bytes, self.total_bytes - sent)
            yield from proc.am.bulk_oneway(peer, "mb_bulk_sink", None,
                                           size)
            sent += size
        yield from proc.am.drain()
        elapsed = proc.sim.now - start
        proc.state["mb_s"] = sent / elapsed if elapsed > 0 else 0.0

    def finalize(self, procs: List[Proc]) -> float:
        rates = [p.state.get("mb_s", 0.0) for p in procs]
        return sum(rates) / len(rates)
