"""Per-message event tracing.

A :class:`MessageTracer` hooks the points a packet passes on its way
through the machine and records a timeline per transfer id:

* ``sent``      -- the host finished paying send overhead (AM layer);
* ``injected``  -- the NIC transmit context put it on the wire;
* ``delivered`` -- the receive context made it visible to the host
  (after the delay queue, for bulk: the last fragment);
* ``handled``   -- the receiving host finished its receive overhead and
  ran the handler.

From these, per-message component latencies (send queueing, wire time,
receive queueing) can be derived — the decomposition the LogP model
reasons about.  Tracing is opt-in via ``Cluster.run(app, tracer=...)``
and adds no simulated time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["MessageTracer", "MessageTimeline"]

_STAGES = ("sent", "injected", "delivered", "handled")


@dataclass
class MessageTimeline:
    """The recorded life of one logical message."""

    xfer_id: int
    src: int = -1
    dst: int = -1
    kind: str = ""
    times: Dict[str, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when every stage was observed."""
        return all(stage in self.times for stage in _STAGES)

    def stage_latency(self, start: str, end: str) -> Optional[float]:
        """Time between two stages, or None if either is missing."""
        if start not in self.times or end not in self.times:
            return None
        return self.times[end] - self.times[start]

    @property
    def total_latency(self) -> Optional[float]:
        """Host-send to handler-done (None until handled)."""
        return self.stage_latency("sent", "handled")

    @property
    def wire_latency(self) -> Optional[float]:
        """Injection to host visibility (includes the delay queue)."""
        return self.stage_latency("injected", "delivered")

    @property
    def tx_queueing(self) -> Optional[float]:
        """Time spent waiting in/behind the transmit context."""
        return self.stage_latency("sent", "injected")

    @property
    def rx_queueing(self) -> Optional[float]:
        """Delivered-to-handled: how long the host left it unpolled."""
        return self.stage_latency("delivered", "handled")


_new = object.__new__


def _new_timeline(xfer_id: int) -> MessageTimeline:
    """``MessageTimeline(xfer_id=xfer_id)`` without the class call, one
    per message: the fields set in declaration order, so the instance
    (its ``__dict__``, equality and pickle) is the one the dataclass
    ``__init__`` builds."""
    timeline = _new(MessageTimeline)
    timeline.xfer_id = xfer_id
    timeline.src = -1
    timeline.dst = -1
    timeline.kind = ""
    timeline.times = {}
    return timeline


class MessageTracer:
    """Collects :class:`MessageTimeline` records during a run."""

    def __init__(self) -> None:
        self._timelines: Dict[int, MessageTimeline] = {}
        self._sim = None  # the run being traced, between begin and finish

    # -- hooks -------------------------------------------------------------
    def on_begin(self, sim, cluster, app_name: str) -> None:
        self._sim = sim

    def on_finish(self) -> None:
        self._sim = None

    def _reached(self, stage: str, packet) -> MessageTimeline:
        timeline = self._timelines.get(packet.xfer_id)
        if timeline is None:
            timeline = self._timelines[packet.xfer_id] = \
                _new_timeline(packet.xfer_id)
        # First observation of each stage wins (bulk transfers hit
        # 'injected' once per fragment; we keep the first).
        timeline.times.setdefault(stage, self._sim.now)
        return timeline

    def on_send(self, rank: int, packet) -> None:
        timeline = self._reached("sent", packet)
        # A reply shares its request's transfer id: the last sender wins.
        timeline.src = packet.src
        timeline.dst = packet.dst
        timeline.kind = packet.kind.value

    def on_inject(self, rank: int, packet) -> None:
        self._reached("injected", packet)

    def on_deliver(self, rank: int, packet) -> None:
        self._reached("delivered", packet)

    def on_handled(self, rank: int, packet) -> None:
        self._reached("handled", packet)

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._timelines)

    def timelines(self, complete_only: bool = False
                  ) -> List[MessageTimeline]:
        """All recorded timelines (optionally only fully observed)."""
        items = list(self._timelines.values())
        if complete_only:
            items = [t for t in items if t.complete]
        return items

    def timeline(self, xfer_id: int) -> MessageTimeline:
        """The timeline of one transfer id (KeyError if unseen)."""
        return self._timelines[xfer_id]

    def latency_stats(self) -> Dict[str, float]:
        """Mean/percentile summary of end-to-end message latency (µs)."""
        totals = [t.total_latency for t in self.timelines(True)]
        if not totals:
            return {"count": 0}
        arr = np.asarray(totals)
        return {
            "count": len(arr),
            "mean_us": float(arr.mean()),
            "p50_us": float(np.percentile(arr, 50)),
            "p95_us": float(np.percentile(arr, 95)),
            "max_us": float(arr.max()),
        }

    def component_breakdown(self) -> Dict[str, float]:
        """Mean time per pipeline stage across complete messages."""
        sums = defaultdict(float)
        count = 0
        for timeline in self.timelines(True):
            sums["tx_queueing"] += timeline.tx_queueing
            sums["wire"] += timeline.wire_latency
            sums["rx_queueing"] += timeline.rx_queueing
            count += 1
        if count == 0:
            return {}
        return {stage: total / count for stage, total in sums.items()}

    def render(self, limit: int = 20) -> str:
        """A small human-readable dump of the slowest messages."""
        complete = sorted(self.timelines(True),
                          key=lambda t: -(t.total_latency or 0.0))
        lines = [f"{'xfer':>6} {'src':>4} {'dst':>4} {'kind':>9} "
                 f"{'total':>8} {'tx_q':>8} {'wire':>8} {'rx_q':>8}"]
        for timeline in complete[:limit]:
            lines.append(
                f"{timeline.xfer_id:6d} {timeline.src:4d} "
                f"{timeline.dst:4d} {timeline.kind:>9} "
                f"{timeline.total_latency:8.2f} "
                f"{timeline.tx_queueing:8.2f} "
                f"{timeline.wire_latency:8.2f} "
                f"{timeline.rx_queueing:8.2f}")
        return "\n".join(lines)
