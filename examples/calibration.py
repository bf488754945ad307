#!/usr/bin/env python3
"""Calibrating the apparatus: Figure 3 and Table 2 from your terminal.

Reproduces the paper's Section 3.3 methodology:

* the LogP *signature* — average message initiation interval vs burst
  size for several inter-message compute delays Δ — from which o_send,
  o_recv, g and L are read off;
* the calibration table — dial each parameter, re-measure all of them,
  and confirm the dials are independent (including the two couplings
  the paper documents).

Run:  python examples/calibration.py
"""

from repro.calibrate import (calibrate_bulk_bandwidth, logp_signature,
                             measure_parameters, round_trip_time)
from repro.calibrate.calibration import (calibration_table,
                                         render_calibration)
from repro.am.tuning import TuningKnobs
from repro.harness import DIALS
from repro.network.loggp import LogGPParams


def main() -> None:
    params = LogGPParams.berkeley_now()

    # Figure 3: the signature with the gap dialed to 14 us, as in the
    # paper's example plot.
    knobs = TuningKnobs.added_gap(14.0 - params.gap)
    signature = logp_signature(params, knobs, deltas=(0.0, 10.0))
    print(signature.render())
    rtt = round_trip_time(params, knobs)
    print(f"round trip time = {rtt:.1f} us "
          "(the paper's figure annotates 21 us)\n")

    # What the microbenchmarks recover at baseline.
    measured = measure_parameters(params)
    print("baseline extraction:", measured.as_row())
    print(f"  o_send = {measured.send_overhead:.2f} us, "
          f"o_recv = {measured.recv_overhead:.2f} us\n")

    # Bulk bandwidth saturation (how the paper calibrates G).
    bulk = calibrate_bulk_bandwidth(params)
    print("bulk bandwidth vs message size:")
    for size, mb in zip(bulk.sizes, bulk.bandwidths_mb_s):
        bar = "#" * int(mb)
        print(f"  {size:6d} B  {mb:6.1f} MB/s  {bar}")
    print(f"  saturated: {bulk.saturated_mb_s:.1f} MB/s "
          f"(machine: {params.bulk_bandwidth_mb_s:.0f})\n")

    # Table 2, abridged: each dial's reduced grid.
    print(render_calibration(calibration_table(
        desired_o=DIALS["overhead"].reduced,
        desired_g=DIALS["gap"].reduced,
        desired_L=DIALS["latency"].reduced)))
    print("\nNote the two couplings the paper itself reports: large o"
          "\nmakes the processor the gap bottleneck (g -> 2o), and"
          "\nlarge L throttles the fixed window (g -> RTT/8).")


if __name__ == "__main__":
    main()
