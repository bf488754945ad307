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

from repro.apps import RadixSort
from repro.harness import CampaignSpec
from repro.harness.experiments import table7_spike_decay
from repro.harness.extensions import occupancy_study
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
