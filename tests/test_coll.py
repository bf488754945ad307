"""Tests for repro.coll: conformance, the cost model, and bit-identity.

The conformance matrix runs every registered algorithm of every
primitive under simsan on awkward rank counts (including non-powers of
two), so one run proves three properties at once: the schedule computes
the right answer, it is race- and deadlock-free, and the sanitizer's
presence does not perturb it.
"""

import dataclasses

import numpy as np
import pytest

from repro.am.layer import HandlerTable
from repro.am.tuning import TuningKnobs
from repro.apps.radix import RadixSort
from repro.cluster.machine import Cluster
from repro.coll.algorithms import (DEFAULT_ALGORITHMS, PRIMITIVES,
                                   algorithms_for, eligible_algorithms,
                                   get_algorithm, registry)
from repro.coll.bench import CollectiveBench
from repro.coll.core import COLL_HANDLER
from repro.coll.model import estimate_cost, predicted_ranking
from repro.gas.runtime import register_gas_handlers
from repro.harness.artifacts import REGISTRY
from repro.network.loggp import LogGPParams

RANK_COUNTS = (1, 2, 3, 5, 8, 13)

ALGORITHM_MATRIX = [(primitive, algo)
                    for primitive in PRIMITIVES
                    for algo in algorithms_for(primitive)]


# -- registry ---------------------------------------------------------------

def _graded(name):
    """(primitive, schedule) of every CollectiveBench run the artifact
    ``name`` plans (planning only: nothing is simulated)."""
    plan = REGISTRY[name].planned(8, 0.05)
    return {(task.app.primitive, task.app.algo) for task in plan.tasks
            if isinstance(task.app, CollectiveBench)}


TABLE8_PRIMITIVES = {primitive for primitive, _algo in _graded("table8")}


def test_every_table8_primitive_has_at_least_two_schedules():
    assert TABLE8_PRIMITIVES
    for primitive in TABLE8_PRIMITIVES:
        assert len(algorithms_for(primitive)) >= 2, primitive


def test_a_schedule_is_registered_only_where_an_artifact_grades_it():
    """A second schedule of a primitive is dead weight unless Table 8
    grades the choice, and every schedule is the default or is planned
    by Table 8, Figure 10 or the model's validation grid."""
    graded = set().union(*map(_graded, ("table8", "figure10", "coll_grid")))
    crowded = [primitive for primitive, algos in registry().items()
               if len(algos) > 1 and primitive not in TABLE8_PRIMITIVES]
    ungraded = [(primitive, algo)
                for primitive, algos in registry().items() for algo in algos
                if algo != DEFAULT_ALGORITHMS[primitive]
                and (primitive, algo) not in graded]
    assert (crowded, ungraded) == ([], [])


def test_defaults_are_registered_and_eligible_everywhere():
    for primitive in PRIMITIVES:
        default = DEFAULT_ALGORITHMS[primitive]
        assert default in algorithms_for(primitive)
        # The default must survive the most restrictive trait set
        # (sparse, non-elementwise), since it is the unconditional
        # fallback.
        assert default in eligible_algorithms(primitive)


def test_get_algorithm_rejects_unknown_names():
    with pytest.raises(KeyError, match="ring"):
        get_algorithm("barrier", "ring")
    with pytest.raises(KeyError):
        get_algorithm("nope", "flat")


# -- conformance matrix -----------------------------------------------------

@pytest.mark.parametrize("primitive,algo", ALGORITHM_MATRIX)
def test_algorithm_conformance_under_simsan(primitive, algo):
    """Right answer, race-free, on every rank count, short and bulk."""
    for n_nodes in RANK_COUNTS:
        for bulk in (False, True):
            cluster = Cluster(n_nodes, seed=3, sanitize=True)
            result = cluster.run(CollectiveBench(
                primitive, algo=algo, size=256, bulk=bulk, iterations=2))
            assert result.output == f"{primitive}:ok"
            report = result.sanitizer
            assert report is None or not report.races, \
                (primitive, algo, n_nodes, bulk)


@pytest.mark.parametrize("primitive,algo", ALGORITHM_MATRIX)
def test_algorithm_determinism_across_reruns(primitive, algo):
    def once():
        result = Cluster(5, seed=7).run(CollectiveBench(
            primitive, algo=algo, size=512, bulk=True, iterations=3))
        return result.runtime_us, result.events_processed
    assert once() == once()


def test_sanitizer_does_not_perturb_collective_timing():
    for primitive in ("allreduce", "alltoall"):
        plain = Cluster(5, seed=2).run(
            CollectiveBench(primitive, size=256, iterations=2))
        sanitized = Cluster(5, seed=2, sanitize=True).run(
            CollectiveBench(primitive, size=256, iterations=2))
        assert plain.runtime_us == sanitized.runtime_us
        assert plain.events_processed == sanitized.events_processed


def test_gas_registers_no_collective_handler_besides_coll_handler():
    """One collective layer: its messages go to the one deposit handler
    (the ``one-collective-path`` rule keeps the rest of the path)."""
    table, names = HandlerTable(), []
    table.register = lambda name, _handler: names.append(name)
    register_gas_handlers(table)
    assert sorted(names) == sorted([
        "_gas_read", "_gas_write", "_gas_bulk_get", "_gas_bulk_put",
        "_gas_lock_try", "_gas_lock_release", COLL_HANDLER])


# -- explicit algorithm validation ------------------------------------------

def test_explicit_unknown_algorithm_raises():
    with pytest.raises(KeyError):
        Cluster(4, seed=0).run(
            CollectiveBench("broadcast", algo="ring", iterations=1))


def test_explicit_ineligible_algorithm_raises():
    """ring allreduce needs an elementwise-declared reduction."""
    class SparseRingBench(CollectiveBench):
        def _invoke(self, proc, iteration):
            got = yield from proc.allreduce(
                proc.rank, lambda a, b: a + b, size=32,
                elementwise=False, algo="ring")
            return got

    with pytest.raises(ValueError, match="not eligible"):
        Cluster(4, seed=0).run(
            SparseRingBench("allreduce", iterations=1))


# -- the cost model ---------------------------------------------------------

def test_estimate_cost_positive_and_rankable():
    params = LogGPParams.berkeley_now()
    knobs = TuningKnobs()
    for primitive in PRIMITIVES:
        ranking = predicted_ranking(primitive, 8, 4096, params, knobs,
                                    bulk=True)
        assert len(ranking) == len(algorithms_for(primitive))
        assert all(cost > 0 for cost, _algo in ranking)
        costs = [cost for cost, _algo in ranking]
        assert costs == sorted(costs)


def test_model_sees_bandwidth_crossover_for_bulk_broadcast():
    """Chain beats binomial for big bulk payloads on a slow wire, and
    the ordering flips for short latency-bound payloads."""
    params = LogGPParams.berkeley_now()
    slow = TuningKnobs.bulk_bandwidth(1.0, params)
    big_chain = estimate_cost("broadcast", "chain", 16, 65536, params,
                              slow, bulk=True)
    big_binomial = estimate_cost("broadcast", "binomial", 16, 65536,
                                 params, slow, bulk=True)
    assert big_chain < big_binomial
    small_chain = estimate_cost("broadcast", "chain", 16, 32, params,
                                TuningKnobs())
    small_binomial = estimate_cost("broadcast", "binomial", 16, 32,
                                   params, TuningKnobs())
    assert small_binomial < small_chain


# -- stats counters ---------------------------------------------------------

def test_collective_stats_counters_and_serialisation():
    result = Cluster(4, seed=1).run(
        CollectiveBench("allreduce", size=256, iterations=3))
    stats = result.stats
    key = "allreduce/binomial"
    assert key in stats.collective_calls
    # Rank 0 opens/closes the timed region, so it logs all 3
    # iterations; other ranks may dispatch an iteration just outside
    # the region (the same boundary skew every counter has).
    calls = stats.collective_calls[key]
    assert calls[0] == 3
    assert calls.min() >= 2
    assert (stats.collective_bytes[key] > 0).all()
    assert stats.total_collectives >= 8
    rows = stats.per_node_rows()
    assert all(row["collectives"] >= 2 for row in rows)

    restored = type(stats).from_dict(stats.to_dict())
    assert sorted(restored.collective_calls) == \
        sorted(stats.collective_calls)
    for key in stats.collective_calls:
        np.testing.assert_array_equal(restored.collective_calls[key],
                                      stats.collective_calls[key])
        np.testing.assert_array_equal(restored.collective_bytes[key],
                                      stats.collective_bytes[key])


def test_a_fresh_result_lists_its_collectives_as_a_restored_one_does():
    """Keys in sorted order, fresh or from the cache: a barrier is
    dispatched before the allreduce, and still listed after it."""
    from repro.apps.base import Application
    from repro.instruments.stats import ClusterStats

    class BarrierThenAllreduce(Application):
        name = "barrier-then-allreduce"

        def run_rank(self, proc):
            yield from proc.barrier()
            yield from proc.allreduce(proc.rank, lambda a, b: a + b)

    fresh = Cluster(4, seed=1).run(BarrierThenAllreduce()).stats
    restored = ClusterStats.from_dict(fresh.to_dict())
    assert list(fresh.collective_calls) == \
        ["allreduce/binomial", "barrier/dissemination"]
    for name in ("collective_calls", "collective_bytes"):
        assert list(getattr(fresh, name)) == list(getattr(restored, name))


def test_stats_from_dict_tolerates_pre_coll_entries():
    from repro.instruments.stats import ClusterStats
    stats = ClusterStats(2)
    data = stats.to_dict()
    del data["collective_calls"]
    del data["collective_bytes"]
    restored = ClusterStats.from_dict(data)
    assert restored.collective_calls == {}
    assert restored.total_collectives == 0


# -- the untuned machine -----------------------------------------------------

def test_untuned_machine_is_bit_identical_to_legacy_radix():
    """The registry defaults are exactly the Split-C schedules: the
    pinned Radix baseline must not move at all."""
    result = Cluster(8, seed=11).run(RadixSort(keys_per_proc=64))
    assert result.runtime_us == 4667.500000000056
    assert result.events_processed == 15328


def test_proc_collectives_flow_through_coll_counters():
    """Proc.barrier lands in the per-algorithm collective counters."""
    result = Cluster(4, seed=0).run(
        CollectiveBench("barrier", iterations=2))
    assert "barrier/dissemination" in result.stats.collective_calls
