"""Unit tests for disks, the cost model, and the Cluster runner."""

import dataclasses
import math

import pytest

from repro import Cluster, CostModel
from repro.apps.base import Application
from repro.cluster.disk import Disk
from repro.cluster.node import Node
from repro.sim import Simulator


# -- disk ---------------------------------------------------------------------

def test_disk_streaming_time():
    sim = Simulator()
    disk = Disk(sim, bandwidth_mb_s=5.5, seek_us=0.0)

    def body():
        yield from disk.read(5_500_000)  # 5.5 MB at 5.5 MB/s = 1 s
        return sim.now

    proc = sim.process(body())
    assert sim.run(stop_event=proc) == pytest.approx(1e6)
    assert disk.bytes_transferred == 5_500_000


def test_disk_seek_charged_once():
    sim = Simulator()
    disk = Disk(sim, bandwidth_mb_s=5.5, seek_us=10_000.0)

    def body():
        yield from disk.read(0, seek=True)
        return sim.now

    proc = sim.process(body())
    assert sim.run(stop_event=proc) == pytest.approx(10_000.0)


def test_disk_arm_serialises_requests():
    sim = Simulator()
    disk = Disk(sim, bandwidth_mb_s=1.0, seek_us=0.0)
    finished = []

    def user(tag, nbytes):
        yield from disk.write(nbytes)
        finished.append((tag, sim.now))

    sim.process(user("a", 100))
    sim.process(user("b", 100))
    sim.run()
    assert finished == [("a", 100.0), ("b", 200.0)]


def test_disk_validates_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        Disk(sim, bandwidth_mb_s=0.0)
    with pytest.raises(ValueError):
        Disk(sim, seek_us=-1.0)
    disk = Disk(sim)
    with pytest.raises(ValueError):
        next(disk.read(-5))


# -- cost model -----------------------------------------------------------------

def test_cost_model_helpers_scale_linearly():
    cost = CostModel()
    assert cost.keys(100) == pytest.approx(100 * cost.us_per_key)
    assert cost.edges(10) == pytest.approx(10 * cost.us_per_edge)
    assert cost.ops(50) == pytest.approx(50 * cost.us_per_op)
    assert cost.copy_bytes(1000) == pytest.approx(
        1000 * cost.us_per_byte_copied)


def test_cost_model_scaled_cpu():
    slow = CostModel().scaled(2.0)
    assert slow.keys(10) == pytest.approx(2 * CostModel().keys(10))


def test_cost_model_rejects_negative():
    with pytest.raises(ValueError, match="cpu_scale"):
        CostModel(cpu_scale=-1.0)


# -- cluster runner ----------------------------------------------------------------

class _Sleeper(Application):
    name = "sleeper"

    def __init__(self, us):
        self.us = us

    def run_rank(self, proc):
        yield from proc.compute(self.us)


def test_cluster_validates_node_count():
    with pytest.raises(ValueError):
        Cluster(n_nodes=0)


@pytest.mark.parametrize("field,bad", [
    ("window", 2.5), ("window", 0),
    ("run_limit_us", math.nan), ("run_limit_us", math.inf),
    ("run_limit_us", 0.0), ("run_limit_us", -1.0)])
def test_cluster_refuses_a_bad_window_or_run_limit_by_name(field, bad):
    # A fractional window ran as the next integer under a run key of its
    # own, and a NaN limit passed planning only to fail mid-drain.
    with pytest.raises(ValueError, match=field):
        Cluster(4, **{field: bad})


def test_cluster_has_no_fabric_option():
    # The flat wire is the one network model.
    with pytest.raises(TypeError):
        Cluster(4, fabric="flat")


def test_the_disk_count_and_per_operation_costs_are_constants():
    # Nothing set them.  The per-operation costs are class constants a
    # subclass could override, so the cost model's key holds them; the
    # disk count is a module constant, which CACHE_FORMAT covers.
    from repro.apps import RadixSort
    from repro.harness.runcache import run_key_spec
    with pytest.raises(TypeError):
        Cluster(4, disks_per_node=1)
    with pytest.raises(TypeError):
        CostModel(us_per_key=2.0)
    spec = run_key_spec(RadixSort(keys_per_proc=8),
                        Cluster(4, cost=CostModel(cpu_scale=2.0)))
    assert spec["cost"] == {
        "class": "repro.cluster.node.CostModel",
        "kwargs": {"cpu_scale": 2.0},
        "constants": {
            "us_per_op": 0.02, "us_per_byte_copied": 0.005,
            "us_per_flop_interaction": 2.0, "us_per_state_hash": 200.0,
            "us_per_edge": 1.0, "us_per_key": 1.0}}
    assert len(Node(Simulator(), 0, CostModel()).disks) == 2


def test_cluster_run_limit_raises_timeout():
    cluster = Cluster(n_nodes=2, run_limit_us=100.0)
    with pytest.raises(TimeoutError):
        cluster.run(_Sleeper(1e9))


def test_cluster_with_knobs_preserves_configuration():
    from repro.am.tuning import TuningKnobs
    cluster = Cluster(n_nodes=4, seed=9, window=5)
    dialed = cluster.with_knobs(TuningKnobs.added_gap(3.0))
    assert dialed.n_nodes == 4
    assert dialed.seed == 9
    assert dialed.window == 5
    assert dialed.knobs.delta_g == 3.0
    assert cluster.knobs.is_baseline  # original untouched


def test_the_run_key_is_clusters_fields_and_with_knobs_keeps_the_rest():
    # One description of a run: the key reads every Cluster field but
    # sanitize, and with_knobs changes the dials and nothing else.
    from repro.am.tuning import TuningKnobs
    from repro.apps import RadixSort
    from repro.harness.runcache import run_key_spec
    from repro.network.faults import FaultPlan
    from repro.network.loggp import LogGPParams
    names = {field.name for field in dataclasses.fields(Cluster)}
    spec = run_key_spec(RadixSort(keys_per_proc=8), Cluster(4))
    assert set(spec) == (names - {"sanitize"}) | {"format", "app"}
    cluster = Cluster(
        4, params=LogGPParams(latency=9.0), window=3,
        window_scope="global", cost=CostModel(cpu_scale=2.0),
        seed=5, run_limit_us=1e6, livelock_limit=7,
        faults=FaultPlan(drop_rate=0.01), sanitize=True)
    dialed = cluster.with_knobs(TuningKnobs.added_gap(3.0))
    assert dialed.knobs == TuningKnobs.added_gap(3.0)
    assert dialed == dataclasses.replace(cluster, knobs=dialed.knobs)


def test_run_result_metadata():
    cluster = Cluster(n_nodes=3, seed=1)
    result = cluster.run(_Sleeper(250.0))
    assert result.app_name == "sleeper"
    assert result.n_nodes == 3
    assert result.runtime_us >= 250.0
    assert result.events_processed > 0
    assert result.runtime_s == pytest.approx(result.runtime_us / 1e6)


def test_run_result_slowdown_vs():
    cluster = Cluster(n_nodes=2)
    fast = cluster.run(_Sleeper(100.0))
    slow = cluster.run(_Sleeper(400.0))
    assert slow.slowdown_vs(fast) > 1.5


def test_cluster_describe():
    text = Cluster(n_nodes=8).describe()
    assert "P=8" in text and "baseline" in text


def test_consecutive_runs_are_independent():
    cluster = Cluster(n_nodes=2, seed=5)
    first = cluster.run(_Sleeper(100.0))
    second = cluster.run(_Sleeper(100.0))
    assert first.runtime_us == second.runtime_us
    assert first.stats is not second.stats


# -- observers -----------------------------------------------------------------

class _LookAtProbes(Application):
    """Rank 0 keeps its ``Probes`` as ``run_rank`` sees it."""

    name = "look-at-probes"

    def __init__(self):
        self.seen = []

    def run_rank(self, proc):
        if proc.rank == 0:
            self.seen.append(proc.probes)
        yield from proc.barrier()


def test_a_plain_run_has_no_listener():
    """The run's stats subscribe to nothing: a plain run resolves every
    hook to ``None``, and under one observer ``begin``, ``mark`` and
    ``finish`` are that observer's bound methods, not a fan-out."""
    from repro.instruments.probes import HOOKS

    app = _LookAtProbes()
    Cluster(n_nodes=2).run(app)
    (probes,) = app.seen
    assert {hook: getattr(probes, hook) for hook in HOOKS} == \
        dict.fromkeys(HOOKS)

    class Bookends:
        def on_begin(self, sim, cluster, app_name):
            pass

        def on_mark(self, rank, label):
            pass

        def on_finish(self):
            pass

    observer, app = Bookends(), _LookAtProbes()
    Cluster(n_nodes=2).run(app, tracer=observer)
    (probes,) = app.seen
    assert (probes.begin, probes.mark, probes.finish) == \
        (observer.on_begin, observer.on_mark, observer.on_finish)
