"""Calibration microbenchmarks must recover the dialed parameters
(Section 3.3 / Table 2)."""

import math

import pytest

from repro.am.tuning import TuningKnobs
from repro.calibrate import (calibrate_bulk_bandwidth, logp_signature,
                             measure_parameters, round_trip_time)
from repro.calibrate.calibration import (calibrate_machine,
                                         calibration_table)
from repro.network.loggp import LogGPParams

NOW = LogGPParams.berkeley_now()


def test_baseline_measurement_matches_machine():
    measured = measure_parameters()
    assert measured.send_overhead == pytest.approx(NOW.send_overhead,
                                                   abs=0.1)
    assert measured.recv_overhead == pytest.approx(NOW.recv_overhead,
                                                   abs=0.2)
    assert measured.overhead == pytest.approx(NOW.overhead, abs=0.2)
    # Finite bursts read g slightly low, as the paper observed.
    assert measured.gap == pytest.approx(NOW.gap, rel=0.12)
    assert measured.latency == pytest.approx(NOW.latency, abs=0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_desired_value_is_refused_by_name(bad):
    # max(0.0, nan) is 0.0: a NaN row used to report the baseline machine.
    with pytest.raises(ValueError, match="desired o"):
        calibrate_machine("o", (bad,))
    with pytest.raises(ValueError, match="desired L"):
        calibration_table(desired_o=(), desired_g=(), desired_L=(bad,))


def test_round_trip_is_2L_plus_4o():
    assert round_trip_time() == pytest.approx(NOW.round_trip_time(),
                                              abs=0.2)


def test_signature_short_burst_shows_send_overhead():
    signature = logp_signature(burst_sizes=(1, 4, 16, 64),
                               deltas=(0.0,))
    assert signature.send_overhead() == pytest.approx(
        NOW.send_overhead, abs=0.1)


def test_signature_large_delta_shows_both_overheads():
    signature = logp_signature(burst_sizes=(64,), deltas=(400.0,))
    interval = signature.steady_state(400.0)
    assert interval - 400.0 == pytest.approx(
        NOW.send_overhead + NOW.recv_overhead, abs=0.3)


def test_dialed_overhead_recovered_within_tolerance():
    rows = calibrate_machine("o", (2.9, 12.9, 52.9, 102.9))
    for row in rows:
        assert row.measured.overhead == pytest.approx(row.desired,
                                                      rel=0.02)
        # L stays put (Table 2, left block).
        assert row.measured.latency == pytest.approx(NOW.latency,
                                                     abs=2.0)


def test_dialed_overhead_raises_effective_gap():
    # Table 2: at o=103 the observed g is ~206 (the processor is the
    # bottleneck at o_send + o_recv).
    rows = calibrate_machine("o", (102.9,))
    assert rows[0].measured.gap == pytest.approx(2 * 102.9, rel=0.05)


def test_dialed_gap_recovered_and_independent():
    rows = calibrate_machine("g", (5.8, 15.0, 55.0, 105.0))
    for row in rows:
        # Finite-burst measurement under-reads slightly (paper: 99 for
        # a desired 105).
        assert row.desired * 0.8 <= row.measured.gap <= row.desired * 1.05
        assert row.measured.overhead == pytest.approx(NOW.overhead,
                                                      abs=0.2)
        assert row.measured.latency == pytest.approx(NOW.latency,
                                                     abs=0.5)


def test_dialed_latency_recovered_and_o_independent():
    rows = calibrate_machine("L", (5.0, 15.0, 55.0, 105.0))
    for row in rows:
        assert row.measured.latency == pytest.approx(row.desired,
                                                     abs=0.5)
        assert row.measured.overhead == pytest.approx(NOW.overhead,
                                                      abs=0.2)


def test_large_latency_raises_effective_gap_via_window():
    # The paper's "notable effect": fixed capacity means g rises with L
    # (observed 27.7 at L=105 with desired g=5.8).
    rows = calibrate_machine("L", (105.0,), window=8)
    effective_gap = rows[0].measured.gap
    expected = 2 * 105.5 / 8  # ~ RTT / window
    assert effective_gap == pytest.approx(expected, rel=0.15)
    assert effective_gap > 3 * NOW.gap


def test_bulk_calibration_saturates_at_machine_bandwidth():
    calibration = calibrate_bulk_bandwidth()
    assert calibration.saturated_mb_s == pytest.approx(
        NOW.bulk_bandwidth_mb_s, rel=0.05)
    # Bandwidth grows with message size up to saturation (the paper
    # grows the size until no further increase).
    assert calibration.bandwidths_mb_s[0] \
        < calibration.bandwidths_mb_s[-1]


def test_bulk_calibration_with_reduced_bandwidth_dial():
    knobs = TuningKnobs.bulk_bandwidth(5.0, NOW)
    calibration = calibrate_bulk_bandwidth(knobs=knobs)
    assert calibration.saturated_mb_s == pytest.approx(5.0, rel=0.1)


def test_signature_render_is_textual():
    signature = logp_signature(burst_sizes=(1, 8), deltas=(0.0,))
    text = signature.render()
    assert "LogP signature" in text and "delta" in text


@pytest.mark.parametrize("measure, arguments", [
    (logp_signature, {"deltas": (math.nan,)}),
    (logp_signature, {"deltas": (-5.0,)}),
    (logp_signature, {"burst_sizes": (0,)}),
    (round_trip_time, {"repeats": 0}),
    (measure_parameters, {"burst": 0}),
    (calibrate_bulk_bandwidth, {"count": 0}),
    (calibrate_bulk_bandwidth, {"sizes": ()}),
], ids=lambda case: getattr(case, "__name__", None) or repr(case))
def test_bad_calibration_input_is_refused_by_name_before_simulating(
        measure, arguments, monkeypatch):
    """Each would measure Δ = 0 under a bogus Δ, divide by zero, or
    return a result that cannot be read: refused, naming the argument,
    before a machine is built."""
    import repro.calibrate.bulk as bulk
    import repro.calibrate.signature as signature

    def build(*_args):
        pytest.fail("a machine was built before the input was refused")

    monkeypatch.setattr(signature, "_two_nodes", build)
    monkeypatch.setattr(bulk, "_two_nodes", build)
    (name,) = arguments
    with pytest.raises(ValueError, match=rf"^{name} "):
        measure(**arguments)
