"""SLO instruments for open-system serving runs.

Closed BSP runs are summarized by one number (the measured runtime);
an open system is summarized by a *distribution*: how long individual
requests took, how deep the queues got, and how much of the offered
load was actually served within the SLO.  This module holds the two
instruments behind those answers:

* :class:`LatencySketch` -- a deterministic streaming quantile sketch
  (log-bucketed histogram, HdrHistogram-style).  Bucket boundaries are
  fixed up front, so recording order never affects the sketch and two
  bit-identical runs serialize to byte-identical sketches; relative
  error is bounded by the bucket width (``2**(1/sub_buckets)``, about
  1.1% at the default resolution).
* :class:`ServingMetrics` -- per-run serving counters: the latency
  sketch (p50/p99/p999), per-node served/assigned/service-time totals,
  sampled queue depths, client-tier backlog, the saturation verdict,
  and the goodput/throughput aggregates.

Everything serializes through ``to_dict``/``from_dict`` exactly like
:class:`~repro.instruments.stats.ClusterStats` (which carries a
``ServingMetrics`` under its optional ``serving`` attribute), so the
RunCache, the ResultStore, and the campaign machinery persist serving
runs unchanged.
"""

from __future__ import annotations

import math
from math import floor, log2
from typing import Dict, List, Optional

__all__ = ["LatencySketch", "ServingMetrics"]

_INF = float("inf")


class LatencySketch:
    """Deterministic log-bucketed streaming quantile sketch.

    Values at or below ``min_us`` land in bucket 0; above it, bucket
    ``i`` covers ``min_us * 2**((i-1)/sub) .. min_us * 2**(i/sub)``,
    so each bucket spans a fixed ``2**(1/sub)`` ratio and any quantile
    is answered within that relative error.  Counts are kept sparsely
    (bucket index -> count), so a run with a tight latency range
    serializes to a handful of entries.
    """

    def __init__(self, min_us: float = 0.5, sub_buckets: int = 64,
                 max_us: float = 1e9) -> None:
        if min_us <= 0 or max_us <= min_us:
            raise ValueError(
                f"need 0 < min_us < max_us, got {min_us}/{max_us}")
        if sub_buckets < 1:
            raise ValueError(f"sub_buckets must be >= 1, got {sub_buckets}")
        self.min_us = float(min_us)
        self.max_us = float(max_us)
        self.sub_buckets = int(sub_buckets)
        #: The clamp bucket: everything >= max_us piles up here.
        self._top = 1 + int(math.ceil(
            math.log2(self.max_us / self.min_us) * self.sub_buckets))
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.sum_us = 0.0
        self.max_observed_us = 0.0

    def _representative(self, index: int) -> float:
        """The midpoint (geometric) value of one bucket."""
        if index <= 0:
            return self.min_us
        return self.min_us * 2.0 ** ((index - 0.5) / self.sub_buckets)

    def record(self, value_us: float) -> None:
        """Fold one latency observation into the sketch; a latency that
        is negative or not finite is refused by name."""
        if not 0.0 <= value_us < _INF:  # NaN fails every comparison
            raise ValueError(
                f"latency must be finite and >= 0, got {value_us}")
        if value_us <= self.min_us:
            index = 0
        else:
            index = 1 + floor(log2(value_us / self.min_us)
                              * self.sub_buckets)
            if index > self._top:
                index = self._top
        counts = self.counts
        counts[index] = counts.get(index, 0) + 1
        self.total += 1
        self.sum_us += value_us
        if value_us > self.max_observed_us:
            self.max_observed_us = value_us

    def quantile(self, q: float) -> Optional[float]:
        """The latency at quantile ``q`` (0 < q <= 1), or None if empty.

        Deterministic rule: the representative value of the first
        bucket whose cumulative count reaches ``ceil(q * total)``.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.total == 0:
            return None
        target = max(1, int(math.ceil(q * self.total)))
        cumulative = 0
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            if cumulative >= target:
                return self._representative(index)
        return self._representative(self._top)  # pragma: no cover

    @property
    def mean_us(self) -> Optional[float]:
        if self.total == 0:
            return None
        return self.sum_us / self.total

    # -- serialisation ------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "min_us": self.min_us,
            "max_us": self.max_us,
            "sub_buckets": self.sub_buckets,
            "counts": {str(index): self.counts[index]
                       for index in sorted(self.counts)},
            "total": self.total,
            "sum_us": self.sum_us,
            "max_observed_us": self.max_observed_us,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencySketch":
        """Rebuild a sketch produced by :meth:`to_dict`; a bucket past
        the clamp bucket, an empty one, or counts that do not sum to
        ``total`` are refused (a corrupt record must read as a cache
        miss, not as a sketch whose quantiles fail later)."""
        sketch = cls(min_us=data["min_us"], sub_buckets=data["sub_buckets"],
                     max_us=data["max_us"])
        sketch.counts = {int(index): int(count)
                         for index, count in data["counts"].items()}
        for index, count in sketch.counts.items():
            if not 0 <= index <= sketch._top or count < 1:
                raise ValueError(
                    f"latency bucket {index}: count {count}, expected a "
                    f"bucket in [0, {sketch._top}] counted at least once")
        counted = sum(sketch.counts.values())
        if counted != data["total"]:
            raise ValueError(f"latency counts sum to {counted}, total is "
                             f"{data['total']}")
        sketch.total = data["total"]
        sketch.sum_us = data["sum_us"]
        sketch.max_observed_us = data["max_observed_us"]
        return sketch


class ServingMetrics:
    """Per-run serving counters and the SLO verdict.

    A record with no update methods: the serving app
    (:mod:`repro.serve.apps`) updates its fields and lists in place,
    once per arrival, completion, drop, served (sub-)request and queue
    sample, from the client tier, the frontends, the shard handlers and
    the periodic queue sampler, with the lists bound as locals.
    ``finish(runtime_us)`` freezes the aggregate rates once the measured
    region is known.
    """

    def __init__(self, n_nodes: int, slo_us: float = 250.0) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = n_nodes
        self.slo_us = float(slo_us)
        self.latency = LatencySketch()
        #: Client-tier arrivals handed to each frontend rank.
        self.assigned = [0] * n_nodes
        #: Requests completed, counted at the issuing frontend.
        self.completed_by = [0] * n_nodes
        #: Requests dropped (admission control after saturation).
        self.dropped_by = [0] * n_nodes
        #: Service handler invocations per serving node.
        self.served_by = [0] * n_nodes
        #: Simulated µs of service compute per node (the utilization
        #: numerator).
        self.service_us_by = [0.0] * n_nodes
        #: Sampled queue depths per node: sample count / sum / max.
        self.queue_count = [0] * n_nodes
        self.queue_sum = [0] * n_nodes
        self.queue_max = [0] * n_nodes
        self.arrivals = 0
        self.completed = 0
        self.dropped = 0
        self.reads_completed = 0
        self.writes_completed = 0
        self.within_slo = 0
        #: Peak client-tier backlog (injected − completed − dropped).
        self.max_backlog = 0
        self.saturated = False
        self.saturated_at_us: Optional[float] = None
        self.saturation_backlog = 0
        #: Measured-region length, set by :meth:`finish`.
        self.runtime_us: Optional[float] = None

    def finish(self, runtime_us: float) -> None:
        """Freeze the rate aggregates once the timed region is known."""
        self.runtime_us = runtime_us

    # -- aggregates ---------------------------------------------------------
    @property
    def verdict(self) -> str:
        """``"saturated"`` when the client tier tripped the backlog
        guard, else ``"ok"`` — the structured alternative to livelock."""
        return "saturated" if self.saturated else "ok"

    @property
    def p50_us(self) -> Optional[float]:
        return self.latency.quantile(0.50)

    @property
    def p99_us(self) -> Optional[float]:
        return self.latency.quantile(0.99)

    @property
    def p999_us(self) -> Optional[float]:
        return self.latency.quantile(0.999)

    @property
    def throughput_rps(self) -> Optional[float]:
        """Completed requests per second of simulated time."""
        if self.runtime_us is None or self.runtime_us <= 0:
            return None
        return self.completed / (self.runtime_us / 1e6)

    @property
    def goodput_rps(self) -> Optional[float]:
        """Requests completed *within the SLO* per simulated second."""
        if self.runtime_us is None or self.runtime_us <= 0:
            return None
        return self.within_slo / (self.runtime_us / 1e6)

    @property
    def slo_attainment(self) -> Optional[float]:
        """Fraction of completed requests inside the SLO."""
        if self.completed == 0:
            return None
        return self.within_slo / self.completed

    @property
    def utilization(self) -> List[Optional[float]]:
        """Per-node service-time fraction of the measured region."""
        if self.runtime_us is None or self.runtime_us <= 0:
            return [None] * self.n_nodes
        return [us / self.runtime_us for us in self.service_us_by]

    @property
    def max_queue_depth(self) -> int:
        """Deepest sampled queue on any node."""
        return max(self.queue_max) if self.queue_max else 0

    # -- serialisation ------------------------------------------------------
    _INT_LIST_FIELDS = ("assigned", "completed_by", "dropped_by",
                        "served_by", "queue_count", "queue_sum",
                        "queue_max")
    _FLOAT_LIST_FIELDS = ("service_us_by",)
    _SCALAR_FIELDS = ("slo_us", "arrivals", "completed", "dropped",
                      "reads_completed", "writes_completed", "within_slo",
                      "max_backlog", "saturated", "saturated_at_us",
                      "saturation_backlog", "runtime_us")

    def to_dict(self) -> dict:
        data = {"n_nodes": self.n_nodes,
                "latency": self.latency.to_dict()}
        for name in self._INT_LIST_FIELDS + self._FLOAT_LIST_FIELDS:
            data[name] = list(getattr(self, name))
        for name in self._SCALAR_FIELDS:
            data[name] = getattr(self, name)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServingMetrics":
        """Rebuild a record produced by :meth:`to_dict`; a per-node list
        whose length is not ``n_nodes`` is refused, as
        :meth:`~repro.instruments.stats.ClusterStats.from_dict` refuses
        a wrong shape."""
        metrics = cls(data["n_nodes"], slo_us=data["slo_us"])
        metrics.latency = LatencySketch.from_dict(data["latency"])
        for names, kind in ((cls._INT_LIST_FIELDS, int),
                            (cls._FLOAT_LIST_FIELDS, float)):
            for name in names:
                values = [kind(v) for v in data[name]]
                if len(values) != metrics.n_nodes:
                    raise ValueError(
                        f"{name}: {len(values)} entries, expected "
                        f"{metrics.n_nodes}")
                setattr(metrics, name, values)
        for name in cls._SCALAR_FIELDS:
            setattr(metrics, name, data[name])
        return metrics

    def describe(self) -> str:
        """One-line summary for CLI output and reports."""
        p99 = self.p99_us
        return (f"serving: {self.completed}/{self.arrivals} completed "
                f"({self.dropped} dropped), "
                f"p99={'N/A' if p99 is None else f'{p99:.1f}us'}, "
                f"verdict={self.verdict}")
