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
from itertools import chain
from typing import Dict, List, Optional, Tuple

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


class MessageTracer:
    """Collects :class:`MessageTimeline` records during a run.

    A hook only notes the instant a transfer first reaches its stage,
    in one dict per stage keyed by transfer id (and, at a send, who
    sent it); the timelines are built from those when they are read."""

    def __init__(self) -> None:
        #: Per stage of ``_STAGES``: transfer id -> first-reach time.
        self._reached: Tuple[Dict[int, float], ...] = tuple(
            {} for _stage in _STAGES)
        self._sent, self._injected, self._delivered, self._handled = \
            self._reached
        #: Transfer id -> ``(src, dst, kind)`` of its last send.
        self._route: Dict[int, tuple] = {}
        self._sim = None  # the run being traced, between begin and finish

    # -- hooks -------------------------------------------------------------
    def on_begin(self, sim, cluster, app_name: str) -> None:
        self._sim = sim

    def on_finish(self) -> None:
        self._sim = None

    # First observation of each stage wins (bulk transfers hit
    # 'injected' once per fragment; we keep the first).
    def on_send(self, rank: int, packet) -> None:
        xfer_id = packet.xfer_id
        self._sent.setdefault(xfer_id, self._sim.now)
        # A reply shares its request's transfer id: the last sender wins.
        self._route[xfer_id] = (packet.src, packet.dst, packet.kind)

    def on_inject(self, rank: int, packet) -> None:
        self._injected.setdefault(packet.xfer_id, self._sim.now)

    def on_deliver(self, rank: int, packet) -> None:
        self._delivered.setdefault(packet.xfer_id, self._sim.now)

    def on_handled(self, rank: int, packet) -> None:
        self._handled.setdefault(packet.xfer_id, self._sim.now)

    # -- queries -----------------------------------------------------------
    def _xfer_ids(self) -> Dict[int, None]:
        """Every transfer id seen, in the order they were first sent
        (then, for any never sent, first injected, and so on)."""
        return dict.fromkeys(chain(*self._reached))

    def __len__(self) -> int:
        return len(self._xfer_ids())

    def _build(self, xfer_id: int) -> MessageTimeline:
        times = {stage: reached[xfer_id]
                 for stage, reached in zip(_STAGES, self._reached)
                 if xfer_id in reached}
        route = self._route.get(xfer_id)
        if route is None:
            return MessageTimeline(xfer_id=xfer_id, times=times)
        src, dst, kind = route
        return MessageTimeline(xfer_id=xfer_id, src=src, dst=dst,
                               kind=kind.value, times=times)

    def timelines(self, complete_only: bool = False
                  ) -> List[MessageTimeline]:
        """All recorded timelines (optionally only fully observed)."""
        items = [self._build(xfer_id) for xfer_id in self._xfer_ids()]
        if complete_only:
            items = [t for t in items if t.complete]
        return items

    def timeline(self, xfer_id: int) -> MessageTimeline:
        """The timeline of one transfer id (KeyError if unseen)."""
        if not any(xfer_id in reached for reached in self._reached):
            raise KeyError(xfer_id)
        return self._build(xfer_id)

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
