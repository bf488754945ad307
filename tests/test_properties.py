"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.am.tuning import TuningKnobs
from repro.gas.memory import GlobalArray
from repro.network.loggp import LogGPParams
from repro.sim import Simulator

SIM_SETTINGS = settings(max_examples=20, deadline=None,
                        suppress_health_check=[HealthCheck.too_slow])


# -- engine ---------------------------------------------------------------------

@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1,
                       max_size=50))
@settings(max_examples=50, deadline=None)
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert sim.now == max(delays)


@given(n=st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_equal_time_events_fifo(n):
    sim = Simulator()
    order = []

    def waiter(tag):
        yield sim.timeout(7.0)
        order.append(tag)

    for tag in range(n):
        sim.process(waiter(tag))
    sim.run()
    assert order == list(range(n))


# -- LogGP parameters -------------------------------------------------------------

@given(latency=st.floats(min_value=0.0, max_value=1000.0),
       o_send=st.floats(min_value=0.0, max_value=1000.0),
       o_recv=st.floats(min_value=0.0, max_value=1000.0),
       gap=st.floats(min_value=0.01, max_value=1000.0))
@settings(max_examples=100, deadline=None)
def test_loggp_identities(latency, o_send, o_recv, gap):
    params = LogGPParams(latency=latency, send_overhead=o_send,
                         recv_overhead=o_recv, gap=gap)
    assert params.capacity >= 1
    assert params.round_trip_time() == pytest.approx(
        2 * latency + 4 * params.overhead)
    assert params.one_way_time() == pytest.approx(
        latency + 2 * params.overhead)
    assert params.overhead == pytest.approx((o_send + o_recv) / 2)


@given(mb=st.floats(min_value=0.1, max_value=37.9))
@settings(max_examples=50, deadline=None)
def test_bulk_bandwidth_knob_hits_target(mb):
    base = LogGPParams.berkeley_now()
    knobs = TuningKnobs.bulk_bandwidth(mb, base)
    assert 1 / (base.Gap + knobs.delta_G) == pytest.approx(mb, rel=1e-9)


@given(mb=st.floats(min_value=38.1, max_value=1e4))
@settings(max_examples=20, deadline=None)
def test_bulk_bandwidth_knob_cannot_speed_up(mb):
    base = LogGPParams.berkeley_now()
    knobs = TuningKnobs.bulk_bandwidth(mb, base)
    assert knobs.delta_G == 0.0  # apparatus only slows the machine


# -- global arrays ------------------------------------------------------------------

@given(length=st.integers(min_value=0, max_value=500),
       n_ranks=st.integers(min_value=1, max_value=33),
       layout=st.sampled_from(["block", "cyclic"]))
@settings(max_examples=100, deadline=None)
def test_array_ownership_partitions_indices(length, n_ranks, layout):
    array = GlobalArray(0, length, n_ranks, layout=layout)
    # Local lengths sum to the total.
    assert sum(array.local_length(r) for r in range(n_ranks)) == length
    # Every index maps to a valid (owner, local) pair, and local indices
    # enumerate 0..local_length-1 exactly once per rank.
    seen = {r: set() for r in range(n_ranks)}
    for index in range(length):
        owner, local_index = array.owner_of(index)
        assert 0 <= owner < n_ranks
        assert 0 <= local_index < array.local_length(owner)
        assert local_index not in seen[owner]
        seen[owner].add(local_index)
    for rank in range(n_ranks):
        assert seen[rank] == set(range(array.local_length(rank)))


@given(length=st.integers(min_value=1, max_value=300),
       n_ranks=st.integers(min_value=1, max_value=17))
@settings(max_examples=50, deadline=None)
def test_block_layout_is_contiguous(length, n_ranks):
    array = GlobalArray(0, length, n_ranks, layout="block")
    for rank in range(n_ranks):
        start = array.local_start(rank)
        for offset in range(array.local_length(rank)):
            assert array.owner_of(start + offset) == (rank, offset)


@given(length=st.integers(min_value=10, max_value=200),
       n_ranks=st.integers(min_value=2, max_value=8))
@settings(max_examples=30, deadline=None)
def test_owner_of_range_rejects_cross_rank_runs(length, n_ranks):
    array = GlobalArray(0, length, n_ranks, layout="block")
    boundary = array.local_length(0)
    if boundary < length:
        with pytest.raises(ValueError):
            array.owner_of_range(boundary - 1, 2)


# -- end-to-end sims with random inputs ---------------------------------------------

@given(keys_per_proc=st.integers(min_value=4, max_value=48),
       n_nodes=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=1000))
@SIM_SETTINGS
def test_radix_sorts_any_input(keys_per_proc, n_nodes, seed):
    from repro import Cluster
    from repro.apps import RadixSort
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    result = cluster.run(RadixSort(keys_per_proc=keys_per_proc))
    assert np.all(np.diff(result.output) >= 0)


@given(n_nodes=st.integers(min_value=1, max_value=5),
       seed=st.integers(min_value=0, max_value=1000),
       state_space=st.integers(min_value=20, max_value=300))
@SIM_SETTINGS
def test_murphi_matches_sequential_bfs(n_nodes, seed, state_space):
    from repro import Cluster
    from repro.apps import Murphi
    from repro.apps.murphi import TransitionSystem
    cluster = Cluster(n_nodes=n_nodes, seed=seed)
    result = cluster.run(Murphi(state_space=state_space))
    reference = TransitionSystem(state_space, 3, seed=seed)
    assert result.output["explored"] == reference.reachable_count()


@given(nbytes=st.sampled_from([None, 64, 4096, 4097, 3 * 4096 + 5]),
       delta_o=st.floats(min_value=0.0, max_value=50.0),
       delta_g=st.floats(min_value=0.0, max_value=50.0),
       delta_L=st.floats(min_value=0.0, max_value=50.0),
       delta_G=st.floats(min_value=0.0, max_value=0.5))
@SIM_SETTINGS
def test_oneway_delivery_time_is_L_plus_2o(nbytes, delta_o, delta_g,
                                           delta_L, delta_G):
    """One one-way message (short if ``nbytes`` is None, else bulk) on
    an idle machine: the simulator against the collective ranking
    model's one-message terms, each built from ``DialedCost``.

    The delivery time is ``o + L + o`` plus the transmit chain up to the
    last fragment's injection, and the NIC is busy for the sum of the
    fragments' cycles.  A model that folds the dials into "effective"
    ``g + delta_g`` and ``G + delta_G`` gets both wrong for bulk: it
    charges the last fragment's ``delta_G`` stall before that fragment
    reaches the wire, takes ``max(g + delta_g, s * (G + delta_G))`` for
    a cycle the NIC spends as ``max(g, s * G) + delta_g + s * delta_G``,
    and sees one DMA where the AM layer cuts several fragments.  Occupancy
    stays 0: the receive context's ``delta_occ`` is not in the charge.
    """
    from repro.coll.model import _hop, _inject
    from tests.helpers import Fabric
    knobs = TuningKnobs(delta_o=delta_o, delta_g=delta_g,
                        delta_L=delta_L, delta_G=delta_G)
    fabric = Fabric(knobs=knobs)
    arrivals = []

    def sink(am, packet):
        arrivals.append(am.sim.now)
        return None

    fabric.table.register("psink", sink)
    am0, am1 = fabric.ams

    def sender():
        if nbytes is None:
            yield from am0.send_oneway(1, "psink", payload=0)
        else:
            yield from am0.bulk_oneway(1, "psink", 0, nbytes)

    def receiver():
        yield from am1.wait_until(lambda: bool(arrivals))

    fabric.run(sender(), receiver())
    cost = am0.nic.charge
    bulk = nbytes is not None
    assert arrivals[0] == pytest.approx(_hop(cost, nbytes or 0, bulk),
                                        rel=1e-9)
    assert am0.nic.tx_busy_us == pytest.approx(
        _inject(cost, nbytes or 0, bulk), rel=1e-9)


# -- Barnes split planning -----------------------------------------------------------

@given(ax=st.floats(min_value=0.01, max_value=0.99),
       ay=st.floats(min_value=0.01, max_value=0.99),
       az=st.floats(min_value=0.01, max_value=0.99),
       bx=st.floats(min_value=0.01, max_value=0.99),
       by=st.floats(min_value=0.01, max_value=0.99),
       bz=st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_plan_split_structure(ax, ay, az, bx, by, bz):
    from repro.apps.barnes import plan_split
    body_a = (0, np.array([ax, ay, az]), 1.0)
    body_b = (1, np.array([bx, by, bz]), 1.0)
    records = plan_split((), body_a, body_b)
    # Both bodies appear in exactly one leaf each (or share one at max
    # depth); the root's flip to internal comes last.
    leaves = [rec for _k, rec in records if rec["type"] == "leaf"]
    bodies = [b[0] for leaf in leaves for b in leaf["bodies"]]
    assert sorted(bodies) == [0, 1]
    assert records[-1][0] == ()
    assert records[-1][1]["type"] == "internal"
    # Every internal record carries a non-empty child map.
    for _key, record in records:
        if record["type"] == "internal":
            assert record["children"]
