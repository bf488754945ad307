"""repro.serve: the open-system serving workload tier.

The serving contract differs from the closed SPMD suite in one deep
way — requests arrive whether or not servers keep up — so the tests
pin down the pieces that make that regime deterministic and honest:

* the client tier's arrival trace is a pure function of its seed;
* the latency sketch answers quantile queries within its bucket
  resolution, and round-trips exactly;
* whole runs are bit-identical under a fixed seed (the determinism
  contract the run cache and result store depend on);
* overload ends in a *structured* ``saturated`` verdict — a completed
  run carrying metrics — never a livelock abort;
* a million simulated users is a constructor knob, not a cost: the
  aggregated-stream client tier only pays per *request*.
"""

import json
import math

import pytest

from repro.apps import RadixSort
from repro.cluster.machine import Cluster
from repro.harness.runcache import RunCache, constructor_params, run_key_spec
from repro.serve import (ARRIVAL_PROCESSES, ClientTier, FanoutServe,
                         KVServe, LatencySketch, ServingApp,
                         ServingMetrics, serving_app_from_dict)


def tiny_kv(**overrides):
    """A serving scenario small enough for dozens of test runs."""
    knobs = dict(offered_rps=200_000.0, n_users=10_000,
                 duration_us=10_000.0, max_requests=300,
                 service_us=4.0, key_space=512)
    knobs.update(overrides)
    return KVServe(**knobs)


def run_stats_json(app, n_nodes=8, seed=3):
    """Canonical JSON of a run's full stats — the bit-identity probe."""
    result = Cluster(n_nodes=n_nodes, seed=seed).run(app)
    return json.dumps(result.stats.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# 1. Client tier: seeded arrival traces.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arrivals", ARRIVAL_PROCESSES)
def test_trace_is_a_pure_function_of_the_seed(arrivals):
    tier = ClientTier(n_users=50_000, offered_rps=300_000.0,
                      duration_us=5_000.0, max_requests=400,
                      arrivals=arrivals)
    assert tier.trace(seed=11) == tier.trace(seed=11)
    assert tier.trace(seed=11) != tier.trace(seed=12)


@pytest.mark.parametrize("arrivals", ARRIVAL_PROCESSES)
def test_trace_respects_budget_duration_and_ranges(arrivals):
    tier = ClientTier(n_users=1000, offered_rps=500_000.0,
                      duration_us=2_000.0, max_requests=250,
                      arrivals=arrivals, key_space=64)
    trace = tier.trace(seed=5)
    assert 0 < len(trace) <= 250
    times = [r.t_us for r in trace]
    assert times == sorted(times)
    assert all(0.0 <= t <= 2_000.0 for t in times)
    assert all(0 <= r.user < 1000 for r in trace)
    assert all(0 <= r.key < 64 for r in trace)
    writes = sum(r.write for r in trace)
    assert 0 < writes < len(trace)


@pytest.mark.parametrize("arrivals, seed, budget, length, digest", [
    ("poisson", 0, 6000, 3894,
     "5c7819d232bb0431ff84ddea926cf205ad39b031c70267363f3325ded5ef1f47"),
    ("poisson", 13, 1500, 1500,
     "ac607ac9071910d4f94ec31244a236baefbc7e92bc53c54322cbce6c8ae2db15"),
    ("bursty", 0, 6000, 3143,
     "39ec5badb7b49ce08398dab6a8d616c55c0747aad6044a99d1bf542ca55cf0a3"),
    ("bursty", 13, 1500, 1500,
     "de7fe3bf7539166c418ad0e0cd26646b4a76c07d3629929606177edd4977be44"),
])
def test_traces_are_the_pinned_ones(arrivals, seed, budget, length, digest):
    """Every arrival time bit for bit, every user, key and direction:
    seed 0 ends on the window, seed 13 on the request budget."""
    import hashlib
    tier = ClientTier(n_users=1_000_000, offered_rps=400_000.0,
                      duration_us=10_000.0, max_requests=budget,
                      arrivals=arrivals)
    trace = tier.trace(seed)
    text = json.dumps([(request.t_us.hex(), request.user, request.key,
                        request.write) for request in trace])
    assert len(trace) == length
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_bursty_trace_is_burstier_than_poisson():
    """MMPP arrivals cluster: the minimum inter-arrival gap shrinks
    and the variance of gaps grows relative to Poisson at equal rate."""
    import statistics
    kwargs = dict(n_users=1000, offered_rps=200_000.0,
                  duration_us=20_000.0, max_requests=2000)
    poisson = ClientTier(arrivals="poisson", **kwargs).trace(seed=2)
    bursty = ClientTier(arrivals="bursty", **kwargs).trace(seed=2)

    def gaps(trace):
        times = [r.t_us for r in trace]
        return [b - a for a, b in zip(times, times[1:])]

    cv2 = lambda g: statistics.variance(g) / statistics.mean(g) ** 2
    assert cv2(gaps(bursty)) > cv2(gaps(poisson))


def test_client_tier_validation():
    with pytest.raises(ValueError):
        ClientTier(n_users=0, offered_rps=1000.0, duration_us=100.0,
                   max_requests=10)
    with pytest.raises(ValueError):
        ClientTier(n_users=10, offered_rps=1000.0, duration_us=100.0,
                   max_requests=10, arrivals="fractal")


# ---------------------------------------------------------------------------
# 2. Latency sketch: accuracy and round-trip.
# ---------------------------------------------------------------------------

def test_sketch_quantiles_track_exact_percentiles():
    import random
    rng = random.Random(7)
    samples = [rng.expovariate(1 / 80.0) + 5.0 for _ in range(20_000)]
    sketch = LatencySketch()
    for sample in samples:
        sketch.record(sample)
    ordered = sorted(samples)
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = ordered[min(len(ordered) - 1,
                            int(q * len(ordered)))]
        approx = sketch.quantile(q)
        # Bucket resolution is 2**(1/64) ~= 1.09% per bucket edge.
        assert abs(approx - exact) / exact < 0.03, (q, approx, exact)


def test_sketch_round_trips_exactly():
    sketch = LatencySketch()
    for value in (0.1, 1.0, 17.3, 250.0, 1e6):
        sketch.record(value)
    restored = LatencySketch.from_dict(sketch.to_dict())
    assert restored.to_dict() == sketch.to_dict()
    for q in (0.001, 0.5, 0.99, 1.0):
        assert restored.quantile(q) == sketch.quantile(q)


# ---------------------------------------------------------------------------
# 3. Whole-run determinism and serialization.
# ---------------------------------------------------------------------------

def test_serving_run_is_bit_identical_under_a_seed():
    assert run_stats_json(tiny_kv()) == run_stats_json(tiny_kv())
    assert run_stats_json(tiny_kv(), seed=3) != \
        run_stats_json(tiny_kv(), seed=4)


def test_serving_metrics_round_trip_through_cluster_stats():
    result = Cluster(n_nodes=4, seed=1).run(tiny_kv(max_requests=120))
    serving = result.stats.serving
    assert isinstance(serving, ServingMetrics)
    assert serving.verdict == "ok"
    assert serving.completed == serving.arrivals
    payload = result.stats.to_dict()
    restored = type(result.stats).from_dict(payload)
    assert restored.serving.to_dict() == serving.to_dict()
    assert json.dumps(payload, sort_keys=True) == \
        json.dumps(restored.to_dict(), sort_keys=True)


def test_closed_apps_serialize_without_a_serving_section():
    """Legacy stats payloads must stay byte-identical: the serving
    field only appears when a serving app attached metrics."""
    result = Cluster(n_nodes=4, seed=7).run(RadixSort(keys_per_proc=32))
    assert result.stats.serving is None
    assert "serving" not in result.stats.to_dict()


@pytest.mark.parametrize("latency", [math.nan, math.inf, -math.inf, -1.0])
def test_sketch_refuses_a_latency_that_is_not_finite_and_non_negative(
        latency):
    sketch = LatencySketch()
    with pytest.raises(ValueError,
                       match=r"^latency must be finite and >= 0, got"):
        sketch.record(latency)
    assert sketch.total == 0 and sketch.counts == {}


def _cut_assigned(serving):
    serving["assigned"] = serving["assigned"][:2]


def _bucket_past_the_clamp(serving):
    serving["latency"]["counts"]["99999"] = 1
    serving["latency"]["total"] += 1


def _counts_short_of_the_total(serving):
    serving["latency"]["total"] += 1


def _an_empty_bucket(serving):
    serving["latency"]["counts"]["0"] = 0


#: Ways a stored serving record can be corrupt; each loaded as a record
#: whose quantiles or per-node reads failed later (``p99_us`` raised
#: ``OverflowError`` on the bucket past the clamp).
CORRUPTIONS = [_cut_assigned, _bucket_past_the_clamp,
               _counts_short_of_the_total, _an_empty_bucket]


#: A small serving point: its app and its machine.
KV_POINT = (tiny_kv(max_requests=120), Cluster(n_nodes=8, seed=1))


@pytest.fixture(scope="module")
def kv_result():
    app, cluster = KV_POINT
    return cluster.run(app)


@pytest.mark.parametrize("corrupt", CORRUPTIONS,
                         ids=lambda corrupt: corrupt.__name__.strip("_"))
def test_a_corrupt_serving_record_is_refused(kv_result, corrupt):
    serving = json.loads(json.dumps(kv_result.stats.serving.to_dict()))
    assert ServingMetrics.from_dict(serving).to_dict() == serving
    corrupt(serving)
    with pytest.raises(ValueError):
        ServingMetrics.from_dict(serving)


@pytest.mark.parametrize("corrupt", CORRUPTIONS,
                         ids=lambda corrupt: corrupt.__name__.strip("_"))
def test_a_corrupt_serving_entry_is_a_cache_miss(kv_result, corrupt,
                                                 tmp_path):
    cache, spec = RunCache(tmp_path), run_key_spec(*KV_POINT)
    cache.put(spec, result=kv_result)
    restored, _ = cache.get(spec)
    assert restored.stats.serving.p99_us == kv_result.stats.serving.p99_us
    [path] = tmp_path.glob("*.json")
    entry = json.loads(path.read_text())
    corrupt(entry["result"]["stats"]["serving"])
    path.write_text(json.dumps(entry))
    assert cache.get(spec) is None
    assert (cache.hits, cache.misses) == (1, 1)


# ---------------------------------------------------------------------------
# 4. Saturation: a structured verdict, not a failure.
# ---------------------------------------------------------------------------

def test_overload_yields_structured_saturated_verdict():
    app = tiny_kv(offered_rps=5_000_000.0, service_us=20.0,
                  max_requests=2000, max_backlog=64)
    result = Cluster(n_nodes=4, seed=2).run(app)
    serving = result.stats.serving
    assert serving.verdict == "saturated"
    assert serving.saturated_at_us is not None
    assert serving.dropped > 0
    # Conservation: every injected request is accounted for.
    assert serving.completed + serving.dropped == serving.arrivals
    # Goodput < throughput < offered under overload.
    assert serving.goodput_rps <= serving.throughput_rps


def test_underload_keeps_ok_verdict_and_slo():
    result = Cluster(n_nodes=8, seed=2).run(
        tiny_kv(offered_rps=50_000.0))
    serving = result.stats.serving
    assert serving.verdict == "ok"
    assert serving.dropped == 0
    assert serving.slo_attainment > 0.9
    assert all(0.0 <= u < 1.0 for u in serving.utilization)
    assert sum(serving.utilization) > 0.0


# ---------------------------------------------------------------------------
# 5. Scale: a million users is a knob, not a cost.
# ---------------------------------------------------------------------------

def test_million_user_scale_point_completes():
    """The acceptance-scale point: >= 1,000,000 simulated users.  The
    client tier aggregates users into seeded streams, so cost follows
    the request budget, not the population."""
    app = tiny_kv(n_users=1_000_000, offered_rps=400_000.0,
                  max_requests=600, key_space=4096)
    result = Cluster(n_nodes=8, seed=5).run(app)
    serving = result.stats.serving
    assert serving.verdict == "ok"
    assert serving.completed == 600
    users = {r.user for r in app.tier().trace(seed=5)}
    assert len(users) > 300  # draws span the population
    assert max(users) > 100_000


# ---------------------------------------------------------------------------
# 6. Frontend assignment, one shard per key, fan-out.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", ("round-robin",))
def test_load_balance_policies_complete_and_spread(policy):
    """Round-robin is the one frontend assignment left, and no knob
    names it."""
    assert "load_balance" not in constructor_params(KVServe)
    result = Cluster(n_nodes=4, seed=6).run(tiny_kv(max_requests=200))
    serving = result.stats.serving
    assert serving.verdict == "ok"
    assert serving.completed == 200
    assert sum(serving.assigned) == 200  # conservation across frontends
    assert min(serving.assigned) > 0  # every frontend saw work


def test_round_robin_assignment_is_even():
    result = Cluster(n_nodes=4, seed=6).run(tiny_kv(max_requests=200))
    assigned = result.stats.serving.assigned
    assert max(assigned) - min(assigned) <= 1


def test_kv_serves_each_request_once_at_its_shard():
    serving = Cluster(n_nodes=4, seed=8).run(
        tiny_kv(max_requests=150)).stats.serving
    assert sum(serving.served_by) == serving.completed == 150


def test_fanout_serves_k_shards_per_request():
    serving = Cluster(n_nodes=8, seed=4).run(FanoutServe(
        fanout=4, offered_rps=100_000.0, n_users=1000,
        duration_us=10_000.0, max_requests=100)).stats.serving
    assert serving.verdict == "ok"
    assert sum(serving.served_by) == 4 * serving.completed


# ---------------------------------------------------------------------------
# 7. Misc contract points.
# ---------------------------------------------------------------------------

def test_open_system_flag_separates_the_regimes():
    assert ServingApp.open_system is True
    assert RadixSort.open_system is False


def test_with_changes_rebuilds_every_constructor_knob():
    app = tiny_kv(arrivals="bursty", slo_us=100.0)
    changed = app.with_changes(offered_rps=999.0)
    assert changed.offered_rps == 999.0
    assert changed.arrivals == "bursty"
    assert changed.slo_us == 100.0
    assert changed.n_users == app.n_users


def test_serving_app_from_dict_round_trip():
    app = tiny_kv()
    spec = {"app": "kvserve", "offered_rps": 123_000.0, "key_space": 64}
    built = serving_app_from_dict(spec)
    assert isinstance(built, KVServe)
    assert built.offered_rps == 123_000.0
    with pytest.raises(ValueError):
        serving_app_from_dict({"app": "nope"})
    with pytest.raises(ValueError, match=r"no knob\(s\) \['ofered_rps'\]"):
        serving_app_from_dict({"app": "kvserve", "ofered_rps": 1.0})
    assert app is not built


@pytest.mark.parametrize("kind, knob, value", [
    ("kvserve", "replication", "primary-backup"),
    ("kvserve", "read_anywhere", True),
    ("kvserve", "load_balance", "round-robin"),
    ("fanout", "load_balance", "random"),
    ("fanout", "write_ratio", 0.1)])
def test_a_retired_knob_is_refused_by_name(kind, knob, value):
    """The forks nobody selected are gone and their knobs fixed: naming
    one, even at its fixed value, is refused as any unknown knob is,
    never ignored."""
    with pytest.raises(ValueError, match=rf"no knob\(s\) \['{knob}'\]"):
        serving_app_from_dict({"app": kind, knob: value})


def test_a_serving_run_is_keyed_by_its_knobs_and_class_constants():
    """A serving run's key holds each constructor knob and each class
    constant, found by reflection; the trace shape and sampler cadence
    are module constants, which ``CACHE_FORMAT`` covers, so they are
    not in it."""
    from repro.harness.runcache import app_fingerprint
    for app in (tiny_kv(), FanoutServe()):
        fingerprint = app_fingerprint(app)
        assert set(fingerprint["kwargs"]) == set(
            constructor_params(type(app)))
        assert fingerprint["constants"] == {
            "name": app.name, "open_system": True}
    assert "fanout" in app_fingerprint(FanoutServe())["kwargs"]


#: Every knob of a serving scenario that is a number, then the numeric
#: knobs it no longer takes.
NUMERIC_KNOBS = ("offered_rps", "n_users", "duration_us", "max_requests",
                 "key_space", "service_us", "slo_us", "max_backlog")
RETIRED_NUMERIC_KNOBS = ("burst_ratio", "mean_burst_us", "mean_calm_us",
                         "user_skew", "write_ratio", "sample_every_us")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("knob", NUMERIC_KNOBS + RETIRED_NUMERIC_KNOBS)
def test_non_finite_knobs_are_refused_by_name(knob, value):
    """NaN passes every ``<`` / ``<=`` check and inf passes the lower
    bounds, so without a finiteness check ``service_us=nan`` ran as 0
    and ``max_backlog=nan`` disabled the saturation guard.  A retired
    knob is refused by name whatever its value: by the constructor,
    which no longer takes it, and by the workload factory a campaign
    spec goes through."""
    if knob in RETIRED_NUMERIC_KNOBS:
        with pytest.raises(TypeError, match=f"'{knob}'"):
            tiny_kv(**{knob: value})
        with pytest.raises(ValueError, match=rf"no knob\(s\) \['{knob}'\]"):
            serving_app_from_dict({"app": "kvserve", knob: value})
        return
    with pytest.raises(ValueError, match=f"^{knob} must be finite"):
        tiny_kv(**{knob: value})
