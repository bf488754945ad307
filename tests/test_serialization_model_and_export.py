"""Tests for the serialization-corrected model."""

import pytest

from repro.models.serialization import (SerializedOverheadModel,
                                        estimate_serial_messages)


# -- serialization model -------------------------------------------------------

def test_serialized_model_adds_serial_term():
    simple_like = SerializedOverheadModel(
        base_runtime_us=1000.0, max_messages_per_proc=10,
        serial_messages=0.0)
    corrected = SerializedOverheadModel(
        base_runtime_us=1000.0, max_messages_per_proc=10,
        serial_messages=5.0)
    assert simple_like.predict_runtime(10.0) == 1200.0
    assert corrected.predict_runtime(10.0) == 1300.0
    assert corrected.simple_model().predict_runtime(10.0) == 1200.0


def test_estimate_serial_messages_roundtrip():
    model = SerializedOverheadModel(base_runtime_us=2000.0,
                                    max_messages_per_proc=40,
                                    serial_messages=25.0)
    measured = model.predict_runtime(50.0)
    estimate = estimate_serial_messages(
        base_runtime_us=2000.0, max_messages_per_proc=40,
        measured_runtime_us=measured, delta_o_us=50.0)
    assert estimate == pytest.approx(25.0)


def test_estimate_clamps_at_zero():
    # Measurement below the simple model: no serial work inferred.
    estimate = estimate_serial_messages(
        base_runtime_us=1000.0, max_messages_per_proc=10,
        measured_runtime_us=1050.0, delta_o_us=10.0)
    assert estimate == 0.0


def test_estimate_requires_positive_delta():
    with pytest.raises(ValueError):
        estimate_serial_messages(1000.0, 10, 1100.0, 0.0)


def test_parallel_efficiency_erodes_with_overhead():
    # 16 "nodes": more messages per proc, shorter serial chain.
    p16 = SerializedOverheadModel(base_runtime_us=1000.0,
                                  max_messages_per_proc=100,
                                  serial_messages=40.0)
    # 32 "nodes": half the per-proc messages, double the serial chain.
    p32 = SerializedOverheadModel(base_runtime_us=600.0,
                                  max_messages_per_proc=50,
                                  serial_messages=80.0)
    ratio_low = p32.parallel_efficiency_ratio(1.0, p16)
    ratio_high = p32.parallel_efficiency_ratio(100.0, p16)
    # As overhead grows, the 32-node config loses ground: the paper's
    # "parallel efficiency will decrease as overhead increases".
    assert ratio_high > ratio_low


def test_serialized_model_against_real_radix_sweep():
    """n_serial backed out of a Radix run must predict a *different*
    high-overhead point better than the simple model."""
    from repro import Cluster, TuningKnobs
    from repro.apps import RadixSort
    app = RadixSort(keys_per_proc=128)
    base = Cluster(n_nodes=8, seed=5)
    baseline = base.run(app)
    mid = base.with_knobs(TuningKnobs.added_overhead(50.0)).run(app)
    top = base.with_knobs(TuningKnobs.added_overhead(100.0)).run(app)

    n_serial = estimate_serial_messages(
        baseline.runtime_us, baseline.stats.max_messages_per_node,
        mid.runtime_us, 50.0)
    model = SerializedOverheadModel(
        base_runtime_us=baseline.runtime_us,
        max_messages_per_proc=baseline.stats.max_messages_per_node,
        serial_messages=n_serial)
    corrected_err = abs(model.predict_runtime(100.0) - top.runtime_us)
    simple_err = abs(model.simple_model().predict_runtime(100.0)
                     - top.runtime_us)
    assert corrected_err < simple_err
