"""Fault injection and the AM reliability protocol.

The contract under test: a null plan is bit-identical to no plan at
all; seeded faults replay bit-identically (and hit the run cache);
packet loss is recovered exactly-once by the NIC's ack/retransmit
machinery; a dead link surfaces as a structured failure, not a
livelock; and the satellite fixes (fragment reassembly by distinct
index, reassembly-leak teardown, transmit-busy accounting, N/A rows on
a failed baseline) hold.
"""

import dataclasses

import pytest

from repro.am.tuning import TuningKnobs
from repro.apps import NowSort, RadixSort
from repro.apps.base import Application
from repro.cluster.machine import Cluster
from repro.harness import run_sweep, spike_decay_sweep
from repro.harness.runcache import run_key_spec
from repro.harness.sweeps import SensitivityFigure, SweepPoint, SweepResult
from repro.network.faults import (DelaySpike, FaultInjector, FaultPlan,
                                  RetryExhausted)
from repro.network.loggp import LogGPParams
from repro.network.nic import Nic
from repro.network.packet import PacketKind, new_packet
from repro.network.wire import Wire
from repro.sim import Simulator


def tiny_radix():
    return RadixSort(keys_per_proc=32)


def lossy_plan(**overrides):
    """A drop plan with short timeouts so tests stay fast."""
    spec = dict(drop_rate=0.02, retx_timeout_us=60.0)
    spec.update(overrides)
    return FaultPlan(**spec)


def fingerprint(result):
    return (result.runtime_us, result.events_processed,
            result.stats.to_dict())


# ---------------------------------------------------------------------------
# FaultPlan semantics.
# ---------------------------------------------------------------------------

def test_default_plan_is_null_and_needs_no_reliability():
    plan = FaultPlan()
    assert plan.is_null
    assert not plan.needs_reliability
    assert plan.describe() == "no faults"


def test_spike_only_plan_is_not_null_but_skips_reliability():
    plan = FaultPlan(spikes=(DelaySpike(node=0, start_us=10.0,
                                        duration_us=5.0),))
    assert not plan.is_null
    assert not plan.needs_reliability  # nothing is lost, only delayed


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(drop_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(retx_timeout_us=0.0)
    with pytest.raises(ValueError):
        DelaySpike(node=0, start_us=-1.0, duration_us=5.0)


NAN = float("nan")


@pytest.mark.parametrize("cls, fields", [
    (FaultPlan, dict(retx_timeout_us=NAN)),
    (FaultPlan, dict(retx_timeout_us=float("inf"))),
    (FaultPlan, dict(retx_backoff=NAN)), (FaultPlan, dict(max_retries=2.5)),
    (DelaySpike, dict(start_us=NAN, node=0, duration_us=5.0)),
    (DelaySpike, dict(duration_us=NAN, node=0, start_us=0.0))])
def test_non_finite_fault_fields_are_refused_by_name(cls, fields):
    """They used to pass every ``<``/``<=`` check: a NaN timeout died
    mid-run naming no field, and a NaN spike never fired yet made the
    plan non-null.  The refused field is the first one given."""
    with pytest.raises(ValueError, match=next(iter(fields))):
        cls(**fields)


def test_null_plan_needs_no_injector():
    with pytest.raises(ValueError):
        FaultInjector(FaultPlan(), seed=0)


def test_injector_streams_depend_on_seed():
    plan = FaultPlan(drop_rate=0.5)

    def draws(seed):
        injector = FaultInjector(plan, seed)
        return [injector._rng.random_sample() for _ in range(8)]

    assert draws(1) == draws(1)
    assert draws(1) != draws(2)


# ---------------------------------------------------------------------------
# The acceptance bar: null-plan bit-identity.
# ---------------------------------------------------------------------------

def test_null_plan_bit_identical_to_no_plan():
    bare = Cluster(n_nodes=4, seed=3).run(tiny_radix())
    nulled = Cluster(n_nodes=4, seed=3, faults=FaultPlan()).run(tiny_radix())
    assert fingerprint(bare) == fingerprint(nulled)


def test_lossy_run_completes_and_replays_bit_identically():
    plan = lossy_plan()
    first = Cluster(n_nodes=4, seed=3, faults=plan).run(tiny_radix())
    second = Cluster(n_nodes=4, seed=3, faults=plan).run(tiny_radix())
    assert fingerprint(first) == fingerprint(second)
    assert first.stats.total_packets_dropped > 0
    assert first.stats.total_retransmissions > 0
    assert first.stats.total_reassembly_leaks == 0
    # Loss costs time: retransmission timeouts land on the critical path.
    baseline = Cluster(n_nodes=4, seed=3).run(tiny_radix())
    assert first.runtime_us > baseline.runtime_us


def test_lossy_run_output_still_validates():
    # RadixSort.finalize asserts the distributed sort's output, so a
    # completed run proves the host-visible stream was exactly-once.
    result = Cluster(n_nodes=4, seed=5,
                     faults=lossy_plan()).run(tiny_radix())
    assert result.output is not None


# ---------------------------------------------------------------------------
# Structured failure: a dead link exhausts retries.
# ---------------------------------------------------------------------------

def test_total_loss_raises_retry_exhausted():
    plan = FaultPlan(drop_rate=1.0, retx_timeout_us=10.0, max_retries=2)
    with pytest.raises(RetryExhausted) as exc_info:
        Cluster(n_nodes=2, seed=0, faults=plan).run(tiny_radix())
    assert exc_info.value.attempts == 2


class _RetriesPerPacket:
    """Tracer: retransmissions of each sequenced packet."""

    def __init__(self):
        self.counts = {}

    def on_begin(self, sim, cluster, app_name):
        pass

    def on_retransmit(self, rank, packet):
        key = (rank, packet.dst, packet.seq)
        self.counts[key] = self.counts.get(key, 0) + 1


def test_max_retries_exactly_met_completes_and_one_fewer_raises():
    """The boundary of the retry budget: a plan whose worst packet
    needs ``n`` retransmissions completes, bit-identically, under
    ``max_retries=n``; under ``n - 1`` that packet exhausts it."""
    plan = lossy_plan(drop_rate=0.2)
    seen = _RetriesPerPacket()
    roomy = Cluster(n_nodes=4, seed=2, faults=plan).run(tiny_radix(),
                                                        tracer=seen)
    needed = max(seen.counts.values())
    assert needed >= 2
    exact = Cluster(n_nodes=4, seed=2, faults=plan.with_changes(
        max_retries=needed)).run(tiny_radix())
    assert fingerprint(exact) == fingerprint(roomy)
    assert exact.output is not None
    with pytest.raises(RetryExhausted) as exc_info:
        Cluster(n_nodes=4, seed=2, faults=plan.with_changes(
            max_retries=needed - 1)).run(tiny_radix())
    assert exc_info.value.attempts == needed - 1


def test_sweep_surfaces_retry_exhausted_as_na_point():
    plan = FaultPlan(retx_timeout_us=10.0, max_retries=2)
    sweep = run_sweep(tiny_radix(), 2, "drop_rate", (1.0,), faults=plan,
                      seed=0).run()
    point = sweep.points[0]
    assert not point.completed
    assert point.failure.startswith("fault:")
    assert point.failure_category == "fault"
    # A failed baseline must not crash a figure's rendering...
    figure = SensitivityFigure("retries spent", "drop rate",
                               {"Radix": sweep})
    assert figure.max_slowdown("Radix") is None
    assert "retries spent" in figure.render()
    # ...while the strict accessors still raise, as before.
    with pytest.raises(RuntimeError, match="baseline"):
        sweep.slowdowns()
    with pytest.raises(RuntimeError, match="baseline"):
        sweep.series()


def test_failed_baseline_plots_no_slowdown_for_completed_points():
    good = Cluster(n_nodes=2, seed=0).run(tiny_radix())
    sweep = SweepResult(app_name="Radix", n_nodes=2, parameter="drop_rate")
    sweep.points = [
        SweepPoint(value=0.0, knobs=TuningKnobs(),
                   failure="fault: dead link"),
        SweepPoint(value=0.01, knobs=TuningKnobs(), result=good),
    ]
    assert [point.completed for point in sweep.points] == [False, True]
    figure = SensitivityFigure("t", "drop rate", {"Radix": sweep})
    assert figure.series() == {"Radix": []}
    assert figure.max_slowdown("Radix") is None


# ---------------------------------------------------------------------------
# The fault sweep and the run cache (determinism and cache hits of the
# sweep itself: tests/test_parallel_cache.py, the drop_rate case).
# ---------------------------------------------------------------------------

def test_null_plan_shares_cache_key_with_no_plan():
    app = tiny_radix()
    params = LogGPParams.berkeley_now()
    bare = run_key_spec(app, Cluster(4, params, TuningKnobs(), seed=3))
    nulled = run_key_spec(app, Cluster(4, params, TuningKnobs(), seed=3,
                                       faults=FaultPlan()))
    lossy = run_key_spec(app, Cluster(4, params, TuningKnobs(), seed=3,
                                      faults=lossy_plan()))
    assert bare == nulled
    assert lossy != bare and lossy["faults"] is not None
    # A plan is keyed by the fields it has, and by no other.
    assert set(lossy["faults"]) == {
        field.name for field in dataclasses.fields(FaultPlan)}


# ---------------------------------------------------------------------------
# Delay spikes: propagation and FIFO ordering.
# ---------------------------------------------------------------------------

class _NicHarness:
    """Two directly-wired NICs with a scripted wire for unit tests."""

    def __init__(self, knobs=None, plan=None, seed=0):
        self.sim = Simulator()
        params = LogGPParams.berkeley_now()
        knobs = knobs if knobs is not None else TuningKnobs()
        injector = FaultInjector(plan, seed) if plan is not None else None
        self.wire = Wire(self.sim, params.latency, injector=injector)
        self.delivered = []
        self.credits = []
        self.sender = Nic(self.sim, 0, params, knobs, self.wire,
                          deliver_to_host=lambda p: None,
                          return_credit=self.credits.append)
        self.receiver = Nic(self.sim, 1, params, knobs, self.wire,
                            deliver_to_host=self.delivered.append,
                            return_credit=lambda x: None)


def test_delay_queue_keeps_fifo_order_under_spike():
    # A spike compresses distinct arrival times onto the window's end;
    # the delta_L delay queue must still deliver in injection order.
    plan = FaultPlan(spikes=(DelaySpike(node=1, start_us=0.0,
                                        duration_us=200.0),))
    harness = _NicHarness(knobs=TuningKnobs(delta_L=25.0), plan=plan)
    packets = [new_packet(PacketKind.REQUEST, 0, 1,
                          handler="h", payload=i) for i in range(5)]
    for packet in packets:
        harness.sender.enqueue(packet)
    harness.sim.run()
    assert [p.payload for p in harness.delivered] == [0, 1, 2, 3, 4]
    # Every packet was held until the spike window closed, then queued
    # for delta_L: first delivery at end_us + delta_L.
    assert harness.delivered[0] is packets[0]


def test_delay_queue_fifo_without_faults():
    harness = _NicHarness(knobs=TuningKnobs(delta_L=25.0))
    packets = [new_packet(PacketKind.REQUEST, 0, 1,
                          handler="h", payload=i) for i in range(4)]
    for packet in packets:
        harness.sender.enqueue(packet)
    harness.sim.run()
    assert [p.payload for p in harness.delivered] == [0, 1, 2, 3]


def test_spike_holds_packets_until_window_end():
    plan = FaultPlan(spikes=(DelaySpike(node=1, start_us=0.0,
                                        duration_us=100.0),))
    harness = _NicHarness(plan=plan)
    harness.sender.enqueue(new_packet(PacketKind.REQUEST, 0, 1,
                                      handler="h"))
    harness.sim.run()
    assert harness.delivered
    assert harness.sim.now >= 100.0
    assert harness.wire.injector.packets_spiked == 1


def test_spike_decay_sweep_residual_shrinks_with_late_spikes():
    sweep = spike_decay_sweep(tiny_radix(), 4, node=0,
                              duration_us=400.0,
                              starts=(200.0, 10_000_000.0), seed=3).run()
    base = sweep.baseline.runtime_us
    early, late = sweep.points[1], sweep.points[2]
    # A spike inside the run surfaces in the runtime; one scheduled far
    # past the end of the run cannot.
    assert early.runtime_us > base
    assert late.runtime_us == pytest.approx(base)


# ---------------------------------------------------------------------------
# Credit loss (the CREDIT-retransmission satellite).
# ---------------------------------------------------------------------------

class _OneWayFlood(Application):
    """Rank 0 floods rank 1 with one-way messages (credit-bound)."""

    name = "oneway-flood"

    def register_handlers(self, table):
        table.register("flood_sink", lambda am, pkt: None)

    def run_rank(self, proc):
        if proc.rank == 0:
            for _ in range(32):
                yield from proc.am.send_oneway(1, "flood_sink")
        else:
            yield from proc.compute(1.0)


def test_dropped_credits_are_retransmitted_not_deadlocked():
    # Drop only CREDIT packets: the data arrives, but flow-control
    # credits are lost and must be retransmitted or the sender's window
    # starves forever.
    plan = FaultPlan(drop_rate=0.5, drop_kinds=("credit",),
                     retx_timeout_us=60.0, max_retries=20)
    result = Cluster(n_nodes=2, seed=1, faults=plan,
                     run_limit_us=1_000_000.0).run(_OneWayFlood())
    assert result.stats.total_packets_dropped > 0
    assert result.stats.total_retransmissions > 0
    # Retransmitted credits come from the receiving node (node 1).
    assert result.stats.retransmissions[1] > 0


def test_credit_only_loss_under_a_validating_app_leaks_nothing():
    """Lost CREDITs under an app that checks its answer: NOW-sort's
    one-way chunks are the suite's CREDIT traffic (Radix's requests are
    all answered by REPLYs and send none), its finalize raises on a
    wrong sort, and no transfer may be left half reassembled."""
    plan = FaultPlan(drop_rate=0.5, drop_kinds=("credit",),
                     retx_timeout_us=60.0, max_retries=20)
    result = Cluster(n_nodes=4, seed=3, faults=plan,
                     run_limit_us=10_000_000.0).run(
        NowSort(records_per_proc=64))
    assert result.output is not None
    assert result.stats.total_packets_dropped > 0
    assert result.stats.total_retransmissions > 0
    assert result.stats.total_reassembly_leaks == 0


def test_ack_only_loss_is_recovered_by_duplicate_suppression():
    # Every data packet arrives, half its acks do not: the sender
    # retransmits what the receiver already has, and the receiver must
    # suppress each copy and re-ack it.  run_limit_us turns a hang into
    # a "budget exceeded" point instead of a wedged suite.
    plan = FaultPlan(drop_kinds=("ack",), retx_timeout_us=60.0)
    point = run_sweep(tiny_radix(), 4, "drop_rate", (0.5,), faults=plan,
                      seed=3, run_limit_us=1_000_000.0).run().points[0]
    assert point.completed, point.failure
    stats = point.result.stats
    assert point.result.output is not None  # finalize validated the sort
    assert stats.total_packets_dropped > 0
    assert stats.total_duplicates_suppressed > 0
    assert (stats.reassembly_leaks == 0).all()


def test_spike_landing_on_a_pending_retransmit_timer():
    # Node 1 freezes for 400 us, far longer than the 60 us timeout, so
    # timers armed before the spike expire inside it and their copies
    # are held by the same spike as the originals and the acks.
    start, duration = 300.0, 400.0
    plan = lossy_plan(drop_rate=0.05, spikes=(
        DelaySpike(node=1, start_us=start, duration_us=duration),))

    class Retransmits:
        def __init__(self):
            self.times = []

        def on_begin(self, sim, cluster, app_name):
            self.sim = sim

        def on_retransmit(self, rank, packet):
            self.times.append(self.sim.now)

    seen = Retransmits()
    result = Cluster(n_nodes=4, seed=3, faults=plan,
                     run_limit_us=1_000_000.0).run(tiny_radix(), tracer=seen)
    assert any(start <= t < start + duration for t in seen.times)
    assert result.output is not None
    assert (result.stats.reassembly_leaks == 0).all()


def test_drop_kinds_narrowing_leaves_other_kinds_alone():
    plan = FaultPlan(drop_rate=1.0, drop_kinds=("ack",))
    injector = FaultInjector(plan, seed=0)
    request = new_packet(PacketKind.REQUEST, 0, 1)
    # Non-droppable kinds never consume a draw and are never dropped.
    for _ in range(16):
        assert injector.transit_delay(request, 0.0, 5.0) is not None
    assert injector.packets_dropped == 0


# ---------------------------------------------------------------------------
# Fragment reassembly (the distinct-index satellite).
# ---------------------------------------------------------------------------

def bulk_fragment(index, count, xfer_id=77, **kw):
    return new_packet(PacketKind.BULK_FRAGMENT, 0, 1,
                      size_bytes=64, fragment=(index, count), is_bulk=True,
                      xfer_id=xfer_id, **kw)


def test_duplicate_fragment_does_not_complete_transfer():
    harness = _NicHarness()
    nic = harness.receiver
    nic.receive_from_wire(bulk_fragment(0, 2))
    nic.receive_from_wire(bulk_fragment(0, 2))  # duplicate, not index 1
    assert harness.delivered == []  # the pre-fix counter would deliver
    nic.receive_from_wire(bulk_fragment(1, 2, handler="h", payload="tail"))
    assert len(harness.delivered) == 1
    assert harness.delivered[0].payload == "tail"


def test_out_of_order_final_fragment_is_stashed():
    harness = _NicHarness()
    nic = harness.receiver
    last = bulk_fragment(1, 2, handler="h", payload="tail")
    nic.receive_from_wire(last)  # final fragment arrives first
    assert harness.delivered == []
    nic.receive_from_wire(bulk_fragment(0, 2))
    assert harness.delivered == [last]


def test_reassembly_teardown_reports_and_clears_leaks():
    harness = _NicHarness()
    nic = harness.receiver
    nic.receive_from_wire(bulk_fragment(0, 3, xfer_id=1))
    nic.receive_from_wire(bulk_fragment(0, 2, xfer_id=2))
    assert nic.reassembly_teardown() == 2
    assert nic.reassembly_teardown() == 0  # state actually cleared


def test_cluster_records_reassembly_leaks_as_zero_when_reliable():
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    assert result.stats.total_reassembly_leaks == 0


# ---------------------------------------------------------------------------
# Transmit-busy accounting (the tx_busy_until satellite).
# ---------------------------------------------------------------------------

def test_transmit_busy_fraction_is_sane():
    result = Cluster(n_nodes=4, seed=0).run(tiny_radix())
    fractions = result.stats.transmit_busy_fraction
    assert fractions.shape == (4,)
    assert (fractions > 0.0).all()
    assert (fractions <= 1.0).all()


def test_stats_roundtrip_preserves_fault_counters():
    from repro.instruments.stats import ClusterStats
    result = Cluster(n_nodes=4, seed=3,
                     faults=lossy_plan()).run(tiny_radix())
    restored = ClusterStats.from_dict(result.stats.to_dict())
    assert restored.total_packets_dropped == \
        result.stats.total_packets_dropped
    assert restored.total_retransmissions == \
        result.stats.total_retransmissions
    assert (restored.tx_busy_us == result.stats.tx_busy_us).all()
