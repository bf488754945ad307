"""The LogP signature microbenchmark (Figure 3, Section 3.3).

The technique of Culler et al. [15]: a sender issues a burst of ``m``
request messages with a fixed computational delay Δ between them, and
the clock stops when the last message is *issued* (requests/replies
still in flight do not count).  Plotting the average initiation interval
against ``m`` for several Δ gives the machine's LogP signature:

* ``m = 1`` exposes the send overhead;
* long bursts at Δ = 0 approach the steady-state interval — the
  effective gap (possibly raised by the fixed flow-control window at
  large latencies);
* for large Δ the processor is the bottleneck and the interval tends to
  ``o_send + o_recv + Δ`` (each reply costs a receive);
* half the request/response round trip minus both overheads gives L.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.am.layer import AmLayer, DEFAULT_WINDOW, HandlerTable
from repro.am.tuning import TuningKnobs
from repro.network.loggp import LogGPParams
from repro.network.wire import Wire
from repro.sim import Simulator

__all__ = ["LogPSignature", "logp_signature", "measure_parameters",
           "round_trip_time", "MeasuredParameters"]

#: Δ large enough to make the host processor the bottleneck.
LARGE_DELTA_US = 400.0


class _Host:
    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.state: Dict = {"served": 0}


def _echo_handler(am, packet):
    am.host.state["served"] += 1
    return packet.payload


def _pair(params: LogGPParams, knobs: TuningKnobs,
          window: int) -> Tuple[Simulator, AmLayer, AmLayer]:
    """A fresh two-node fabric with an echo server registered."""
    sim = Simulator()
    wire = Wire(sim, params.latency)
    table = HandlerTable()
    table.register("cal_echo", _echo_handler)
    ams = []
    for node_id in (0, 1):
        am = AmLayer(sim, node_id, params, knobs, wire, table,
                     window=window)
        am.host = _Host(node_id)
        ams.append(am)
    return sim, ams[0], ams[1]


def _burst_interval(params: LogGPParams, knobs: TuningKnobs,
                    burst: int, delta: float, window: int) -> float:
    """Average initiation interval for one (m, Δ) point, in µs."""
    sim, sender, receiver = _pair(params, knobs, window)

    def send_loop():
        start = sim.now
        for i in range(burst):
            if delta > 0:
                yield delta
            # GAM polls on entry to the communication layer: pending
            # replies are received (and paid for) here.
            yield from sender.poll()
            yield from sender.send_request(1, "cal_echo", i)
        return (sim.now - start) / burst

    def serve_loop():
        yield from receiver.wait_until(
            lambda: receiver.host.state["served"] >= burst)

    send_proc = sim.process(send_loop())
    sim.process(serve_loop())
    return sim.run(stop_event=sim.all_of([send_proc]))[send_proc]


@dataclass
class LogPSignature:
    """The Figure 3 data: µs/message for each (Δ, burst size)."""

    params: LogGPParams
    knobs: TuningKnobs
    burst_sizes: List[int]
    deltas: List[float]
    #: intervals[delta][burst] = average µs per message.
    intervals: Dict[float, Dict[int, float]] = field(default_factory=dict)

    def steady_state(self, delta: float) -> float:
        """The large-burst interval for a given Δ."""
        series = self.intervals[delta]
        return series[max(series)]

    def send_overhead(self) -> float:
        """The single-message issue cost (m = 1, Δ = 0)."""
        return self.intervals[0.0][min(self.intervals[0.0])]

    def render(self) -> str:
        """ASCII table of the signature (bursts across, Δ down)."""
        lines = [f"LogP signature: {self.params.describe()} "
                 f"[{self.knobs.describe()}]"]
        header = "delta\\m " + "".join(
            f"{m:>9d}" for m in self.burst_sizes)
        lines.append(header)
        for delta in self.deltas:
            row = "".join(f"{self.intervals[delta][m]:9.2f}"
                          for m in self.burst_sizes)
            lines.append(f"{delta:7.1f} {row}")
        return "\n".join(lines)


def logp_signature(params: Optional[LogGPParams] = None,
                   knobs: Optional[TuningKnobs] = None,
                   burst_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
                   deltas: Sequence[float] = (0.0, 10.0),
                   window: int = DEFAULT_WINDOW) -> LogPSignature:
    """Run the burst microbenchmark grid and return the signature."""
    params = params or LogGPParams.berkeley_now()
    knobs = knobs or TuningKnobs()
    signature = LogPSignature(params=params, knobs=knobs,
                              burst_sizes=list(burst_sizes),
                              deltas=list(deltas))
    for delta in signature.deltas:
        series = {}
        for burst in signature.burst_sizes:
            series[burst] = _burst_interval(params, knobs, burst, delta,
                                            window)
        signature.intervals[delta] = series
    return signature


def round_trip_time(params: Optional[LogGPParams] = None,
                    knobs: Optional[TuningKnobs] = None,
                    window: int = DEFAULT_WINDOW,
                    repeats: int = 8,
                    spacing_us: float = 400.0) -> float:
    """Average request/response round trip (a blocking echo), in µs.

    Pings are spaced by ``spacing_us`` of local computation so one
    ping's transmit-gap stall (which happens *after* injection and so is
    not part of the round trip) never delays the next ping.
    """
    params = params or LogGPParams.berkeley_now()
    knobs = knobs or TuningKnobs()
    sim, sender, receiver = _pair(params, knobs, window)

    def ping_loop():
        total = 0.0
        for i in range(repeats):
            yield spacing_us
            yield from sender.poll()
            start = sim.now
            yield from sender.rpc(1, "cal_echo", i)
            total += sim.now - start
        return total / repeats

    def serve_loop():
        yield from receiver.wait_until(
            lambda: receiver.host.state["served"] >= repeats)

    ping = sim.process(ping_loop())
    sim.process(serve_loop())
    return sim.run(stop_event=sim.all_of([ping]))[ping]


@dataclass(frozen=True)
class MeasuredParameters:
    """The LogP view of a machine, as measured by the microbenchmarks."""

    send_overhead: float
    recv_overhead: float
    overhead: float  # the paper's o: average of send and receive
    gap: float
    latency: float
    round_trip: float

    def as_row(self) -> dict:
        """Flat dict row for tabular reporting."""
        return {
            "o (us)": round(self.overhead, 2),
            "g (us)": round(self.gap, 2),
            "L (us)": round(self.latency, 2),
            "RTT (us)": round(self.round_trip, 2),
        }


def measure_parameters(params: Optional[LogGPParams] = None,
                       knobs: Optional[TuningKnobs] = None,
                       window: int = DEFAULT_WINDOW,
                       burst: int = 64) -> MeasuredParameters:
    """Extract (o, g, L) from the microbenchmarks, as the paper does.

    * o_send: single-message issue time;
    * g: steady-state interval of a Δ=0 burst;
    * o_recv: steady-state interval of a large-Δ burst, minus Δ and
      o_send (for sufficiently large Δ the processor is the bottleneck);
    * L: half the round trip minus both overheads.
    """
    params = params or LogGPParams.berkeley_now()
    knobs = knobs or TuningKnobs()
    o_send = _burst_interval(params, knobs, 1, 0.0, window)
    gap = _burst_interval(params, knobs, burst, 0.0, window)
    busy = _burst_interval(params, knobs, burst, LARGE_DELTA_US, window)
    o_recv = busy - LARGE_DELTA_US - o_send
    rtt = round_trip_time(params, knobs, window)
    latency = rtt / 2.0 - o_send - o_recv
    return MeasuredParameters(
        send_overhead=o_send,
        recv_overhead=o_recv,
        overhead=(o_send + o_recv) / 2.0,
        gap=gap,
        latency=latency,
        round_trip=rtt,
    )
