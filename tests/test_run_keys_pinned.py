"""Run keys, pinned to constants.

A run key is the identity a run is cached and stored under.  A harness
refactor that moves one dialed float in its last bit, or one field of
the key-spec, still passes every test that compares keys to each other
— and silently orphans every user's run cache and campaign store.
These digests are what the keys *were*: planning only, nothing
simulates.

``CACHE_FORMAT`` is the one legitimate reason to re-pin (a bump orphans
old entries on purpose); anything else that moves a digest is a bug in
the change, not in this file.
"""

import hashlib

from repro.apps import RadixSort, default_suite
from repro.cluster.machine import Cluster
from repro.harness import CampaignSpec
from repro.harness.experiments import table7_spike_decay
from repro.harness.extensions import (investment_study, occupancy_study,
                                      scaling_study)
from repro.harness.runcache import RunCache, run_key_spec
from repro.harness.surface import sensitivity_surface
from repro.harness.sweeps import DIALS, run_sweep
from repro.serve import FanoutServe, KVServe

#: The reduced grids of the EXPERIMENTS report, baseline first: so the
#: table's grids are pinned with the keys.
REDUCED = {name: dial.reduced for name, dial in DIALS.items()
           if dial.reduced is not None}


def digest(pairs):
    """sha256 over ordered ``(value, key)`` pairs."""
    text = "\n".join(f"{value!r} {key}" for value, key in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def task_digest(plan):
    return digest((task.value, task.key) for task in plan.tasks)


def test_every_dial_sweeps_the_keys_it_always_has():
    app = RadixSort(keys_per_proc=32)
    assert {dial: task_digest(run_sweep.plan(app, 4, dial, REDUCED[dial]))
            for dial in REDUCED} == {
        "overhead":
            "151b17b4adcec1cd3efc401d05c12321c1f663391f9243fc0b4ad5ba2eae16df",
        "gap":
            "b636886ef12b9e09f6bd95477a9e4f836ef025085130e6994ef6fc653eab0ffe",
        "latency":
            "a19d77e050e746bad4590f61e1547554f3777596921eb1b32e4976512a9f3f43",
        "bulk_mb_s":
            "100090860cd640b2e3fb91280d26ab09d455fba691e657969e4d56a34289f918",
        "drop_rate":
            "4ffad1657096b9d8c6bb26ad65ffad3444b17c5a3d155e565bf6d2dc5e9efe3f",
    }


def test_offered_load_sweeps_the_keys_it_always_has():
    app = KVServe(offered_rps=200_000.0, n_users=5_000,
                  duration_us=8_000.0, max_requests=120, service_us=4.0,
                  key_space=256)
    assert task_digest(run_sweep.plan(
        app, 4, "offered_rps", (100_000.0, 400_000.0, 1_600_000.0))) == \
        "123505e3d8ed9b220e9735cf0cf485928a7a9e44212be2bbdb434d09620c5af4"


def test_fanout_and_bursty_serving_plans_keep_their_keys():
    """A serving run's key carries every knob its class ever took,
    the retired ones as constants: FanoutServe's set differs from
    KVServe's, and a bursty trace is keyed apart from a Poisson one."""
    small = dict(n_users=5_000, duration_us=8_000.0, max_requests=120,
                 service_us=4.0, key_space=256)
    fanout = FanoutServe(fanout=3, offered_rps=100_000.0, **small)
    assert task_digest(run_sweep.plan(
        fanout, 4, "offered_rps", (100_000.0, 400_000.0, 1_600_000.0))) == \
        "8b02a73d0a3946a12f203228c06f2842626e2ba880442e23da83e30b65f28949"
    bursty = KVServe(arrivals="bursty", offered_rps=400_000.0, **small)
    assert task_digest(run_sweep.plan(
        bursty, 4, "overhead", REDUCED["overhead"])) == \
        "5d2922c1b490d6e8f7a9fab50b3be42003d23444296588ff68f47eccb89730d5"


def test_the_spike_plan_keeps_its_keys():
    """Table 7's plans: one spike-only fault plan per point, whose key
    holds every field a fault plan ever had."""
    plan = table7_spike_decay.plan(n_nodes=4, scale=0.1,
                                   names=("Radix", "Connect"))
    assert len(plan.tasks) == 12
    assert task_digest(plan) == \
        "9e206527f3cc57500504feb1d1f1e3ffad798114149737f9f6a64e86be5b71da"


def test_a_five_dial_campaign_expands_to_the_keys_it_always_has():
    spec = CampaignSpec(name="pinned", apps=("Radix", "Connect"),
                        node_counts=(4,), dials=tuple(REDUCED.items()),
                        seeds=(0, 7), scale=0.1)
    points = spec.points()
    assert len(points) == 2 * 2 * sum(map(len, REDUCED.values()))
    assert digest((point.value, point.key) for point in points) == \
        "b52375e657c9855abf4629773899584b6419bb73dde260a41e6c93472a8c3a65"


def test_surface_and_occupancy_grids_keep_their_keys():
    assert task_digest(sensitivity_surface.plan(
        "Sample", 4, "overhead", (25.0,), "gap", (25.0,))) == \
        "ecb20e6c47954eea5d3be7c4263a1fc3be938404ce8a58f6abf3bd7508250845"
    assert task_digest(occupancy_study.plan(n_nodes=4)) == \
        "0e0712c677e6ce99c5b1850568bc2ef9926eb6d29d80b44aea8d263638de669d"


def test_every_suite_app_keeps_its_keys():
    """One digest per application, over its keys at two suite scales on
    4 nodes: each key holds every shape knob the app's class has ever
    taken and every field of the default machine, so a failure names
    the app whose key moved."""
    pairs = {}
    for scale in (0.05, 0.1):
        for app in default_suite(scale):
            spec = run_key_spec(app, Cluster(n_nodes=4))
            pairs.setdefault(app.name, []).append(
                (scale, RunCache.key_for(spec)))
    assert {name: digest(keyed) for name, keyed in pairs.items()} == {
        "Radix":
            "2581f529fd1ff829d21e9d50bbac21cff11d1a15ba9806f515c3791500b05c10",
        "EM3D(write)":
            "49e175173cce21c3bbb3a1168d28fe640fe253c5f78cde42915e14541a03b027",
        "EM3D(read)":
            "dd0c2346799ada40c7c765e35f311e587a37386443560c04c41701093fa2f40b",
        "Sample":
            "def7e606c40e8adbe68bbd2cbff4f1543ed61e273f47def50b8faa1ff15d879b",
        "Barnes":
            "63de58f0bdc2597a7c482798a0758823fb9a8e5f3c80c5ace8fc7397866fcb03",
        "P-Ray":
            "b8da9b9c0afa6094f58798cd99573169d84a873b4a8f0f1b23a5e4fc6cb621be",
        "Murphi":
            "a4b0fb98bc4ce001d7803ade8a1f1d735e37cb97312abecff32936a9cd02bf14",
        "Connect":
            "9dfc82d600096634138c5eadea95ec48df387ffcc9ea9704b062f3b11c97581a",
        "NOW-sort":
            "2cb615eac24184c7a773b33ffc3326de71394cb3876a07341e28a12360b8ace1",
        "Radb":
            "c56e920eab25db2125c0adf43a763a0877d21b090abd8b69906a2ceb25538614",
    }


def test_the_cost_and_scaling_studies_keep_their_keys():
    """The investment study is the one plan that sets a cost model (a
    2x CPU); the scaling study runs one app at several sizes."""
    assert task_digest(investment_study.plan(n_nodes=8, scale=0.05)) == \
        "c5331486f9f2def4d4550d40912d2b6cf7a22e86c2e43b4bcee66f1875a974c2"
    assert task_digest(scaling_study.plan(node_counts=(4, 8),
                                          scale=0.05)) == \
        "62fa316b6763ee7dfdb6d84ed5e291550c9a8a912cc9cea1c2c9cc69e95eb2c6"
