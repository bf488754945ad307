"""The burst microbenchmark application must feel the gap through the
*full* cluster stack."""

import pytest

from repro import Cluster, LogGPParams, TuningKnobs
from repro.apps.microbench import BurstSender

NOW = LogGPParams.berkeley_now()


def test_burst_sender_steady_state_is_gap_bound():
    result = Cluster(n_nodes=4, seed=1).run(
        BurstSender(n_messages=64, interval_us=0.0))
    # Flat-out on a ring where every node both sends and acknowledges:
    # two packets traverse each transmit context per application
    # message, so the steady-state initiation interval approaches 2g.
    # (The Figure 3 calibration sees g itself because its receiver is a
    # dedicated echo server.)
    assert result.output == pytest.approx(2 * NOW.gap, rel=0.15)


def test_burst_sender_feels_added_gap():
    cluster = Cluster(n_nodes=4, seed=1,
                      knobs=TuningKnobs.added_gap(50.0))
    result = cluster.run(BurstSender(n_messages=64))
    # Each app message plus its ack pass the transmit context, so the
    # steady-state initiation interval approaches 2 x g_total.
    assert result.output > 1.2 * (NOW.gap + 50.0)


def test_paced_burst_sender_ignores_gap():
    knobs = TuningKnobs.added_gap(50.0)
    paced = BurstSender(n_messages=32, interval_us=250.0)
    base = Cluster(n_nodes=4, seed=1).run(paced).output
    dialed = Cluster(n_nodes=4, seed=1, knobs=knobs).run(paced).output
    assert dialed == pytest.approx(base, rel=0.1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        BurstSender(n_messages=0)
    with pytest.raises(ValueError):
        BurstSender(interval_us=-1.0)
