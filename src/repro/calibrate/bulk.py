"""Bulk bandwidth calibration (Section 3.3, last paragraph).

"To calibrate G, we use a similar methodology, but instead send a burst
of bulk messages, each with a fixed size.  From the steady-state
initiation interval and message size we derive the calibrated
bandwidth.  We increase the bulk message size until we no longer
observe an increase in bandwidth."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.am.layer import DEFAULT_WINDOW
from repro.am.tuning import TuningKnobs
from repro.calibrate.signature import _two_nodes, _require_counts
from repro.network.loggp import LogGPParams

__all__ = ["BulkCalibration", "calibrate_bulk_bandwidth"]


@dataclass(frozen=True)
class BulkCalibration:
    """Measured bulk bandwidth at each probed message size."""

    sizes: List[int]
    bandwidths_mb_s: List[float]

    @property
    def saturated_mb_s(self) -> float:
        """The plateau bandwidth (the calibrated ``1/G``)."""
        return max(self.bandwidths_mb_s)


def _bulk_rate(params: LogGPParams, knobs: TuningKnobs, size: int,
               count: int, window: int) -> float:
    """Steady-state MB/s for a burst of ``count`` bulk one-way sends."""
    sim, sender, receiver = _two_nodes(params, knobs, window)

    def send_loop():
        start = sim.now
        for i in range(count):
            yield from sender.am.bulk_oneway(1, "cal_sink", i, size)
        yield from sender.am.drain()
        return size * count / (sim.now - start)  # bytes/us == MB/s

    def serve_loop():
        yield from receiver.am.wait_until(
            lambda: receiver.state["served"] >= count)

    proc = sim.process(send_loop())
    sim.process(serve_loop())
    return sim.run(stop_event=sim.all_of([proc]))[proc]


def calibrate_bulk_bandwidth(
        params: Optional[LogGPParams] = None,
        knobs: Optional[TuningKnobs] = None,
        sizes: Sequence[int] = (256, 512, 1024, 2048, 4096, 8192, 16384),
        count: int = 16,
        window: int = DEFAULT_WINDOW) -> BulkCalibration:
    """Probe increasing bulk sizes until bandwidth saturates.  ``sizes``
    must not be empty and ``count`` must be an int >= 1, else
    ``ValueError`` names the argument."""
    if not sizes:
        raise ValueError("sizes is empty: bulk calibration probes at "
                         "least one message size")
    _require_counts("count", count)
    params = params or LogGPParams.berkeley_now()
    knobs = knobs or TuningKnobs()
    bandwidths = [_bulk_rate(params, knobs, size, count, window)
                  for size in sizes]
    return BulkCalibration(sizes=list(sizes), bandwidths_mb_s=bandwidths)
