"""Run keys, pinned to constants.

A run key is the identity a run is cached and stored under.  A harness
refactor that moves one dialed float in its last bit, or one field of
the key-spec, still passes every test that compares keys to each other
— and silently orphans every user's run cache and campaign store.
These digests are what the keys *were*: planning only, nothing
simulates.

``CACHE_FORMAT`` is the one legitimate reason to re-pin (a bump orphans
old entries on purpose), and it is pinned here beside the digests, so a
bump shows in this file's diff; anything else that moves a digest is a
bug in the change, not in this file.
"""

import hashlib

from repro.am.tuning import TuningKnobs
from repro.apps import Barnes, RadixSort, default_suite
from repro.cluster.machine import Cluster
from repro.harness import CampaignSpec
from repro.harness.experiments import table7_spike_decay
from repro.harness.extensions import (investment_study, occupancy_study,
                                      scaling_study)
from repro.harness.runcache import CACHE_FORMAT, RunCache, run_key_spec
from repro.harness.surface import sensitivity_surface
from repro.harness.sweeps import DIALS, run_sweep
from repro.network.loggp import LogGPParams
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


def test_the_digests_are_of_format_5_keys():
    assert CACHE_FORMAT == 5


def test_every_dial_sweeps_the_keys_it_always_has():
    app = RadixSort(keys_per_proc=32)
    assert {dial: task_digest(run_sweep(app, 4, dial, REDUCED[dial]))
            for dial in REDUCED} == {
        "overhead":
            "aa2df9948f6f767dabed845527334582b91704a8311f9232d96fc4ae68cdf28c",
        "gap":
            "e10b5c2fc33e17e30780a79268e4b3102784f52cb1a3fdb9a64515cca2812f01",
        "latency":
            "80605c00d1b08a2b28a7ac2aeb1b4b97815fdd85ca2f3374fd066148f621b298",
        "bulk_mb_s":
            "8d31f301596ccb5e62b8f56fa21e217d38790a1101477dc7e8f96c7dfd94bf71",
        "drop_rate":
            "f29c1b769f26d25b8b272cc449f391dac46f83615bfb739cb74ab602358ab4ec",
    }


def test_offered_load_sweeps_the_keys_it_always_has():
    app = KVServe(offered_rps=200_000.0, n_users=5_000,
                  duration_us=8_000.0, max_requests=120, service_us=4.0,
                  key_space=256)
    assert task_digest(run_sweep(
        app, 4, "offered_rps", (100_000.0, 400_000.0, 1_600_000.0))) == \
        "c381724627e052dc1e8727141792e947ae2c2a0bae88b1a0410a2ee31fe915e4"


def test_fanout_and_bursty_serving_plans_keep_their_keys():
    """A serving run's key carries every knob and class constant of its
    class: FanoutServe's set differs from KVServe's, and a bursty trace
    is keyed apart from a Poisson one."""
    small = dict(n_users=5_000, duration_us=8_000.0, max_requests=120,
                 service_us=4.0, key_space=256)
    fanout = FanoutServe(fanout=3, offered_rps=100_000.0, **small)
    assert task_digest(run_sweep(
        fanout, 4, "offered_rps", (100_000.0, 400_000.0, 1_600_000.0))) == \
        "e08a1e74f415fd9f2162ba5dddf1db47c9f223647d6b4482f24e3b021aaa5593"
    bursty = KVServe(arrivals="bursty", offered_rps=400_000.0, **small)
    assert task_digest(run_sweep(
        bursty, 4, "overhead", REDUCED["overhead"])) == \
        "8beef035c9b2a1c274f276743c372070abc86a278f10ccca0d5c6b67c81f3151"


def test_the_spike_plan_keeps_its_keys():
    """Table 7's plans: one spike-only fault plan per point, whose key
    holds every field of the plan."""
    plan = table7_spike_decay(n_nodes=4, scale=0.1,
                              names=("Radix", "Connect"))
    assert len(plan.tasks) == 12
    assert task_digest(plan) == \
        "fb755962f9ff167ba18584d2ca50723190423ede06a4f82c9f26e64d31cc12d6"


def test_a_five_dial_campaign_expands_to_the_keys_it_always_has():
    spec = CampaignSpec(name="pinned", apps=("Radix", "Connect"),
                        node_counts=(4,), dials=tuple(REDUCED.items()),
                        seeds=(0, 7), scale=0.1)
    points = spec.points()
    assert len(points) == 2 * 2 * sum(map(len, REDUCED.values()))
    assert digest((point.value, point.key) for point in points) == \
        "e2b250c08f41f62b79a4d9b0e2d7a1963170f71549b001d410361f2eca60434e"


def test_surface_and_occupancy_grids_keep_their_keys():
    assert task_digest(sensitivity_surface(
        "Sample", 4, "overhead", (25.0,), "gap", (25.0,))) == \
        "29f4b1ef6fcda5668dbd919dceec74901c9b8b9053fc08845237c276fd0cbcfa"
    assert task_digest(occupancy_study(n_nodes=4)) == \
        "f9298d57d4625bab374a2bf792a5c89a79005470c92d2b5c9faeb9c6a9f56551"


def test_every_suite_app_keeps_its_keys():
    """One digest per application, over its keys at two suite scales on
    4 nodes: each key holds the app's size, every shape constant of its
    class and every field of the default machine, so a failure names
    the app whose key moved."""
    pairs = {}
    for scale in (0.05, 0.1):
        for app in default_suite(scale):
            spec = run_key_spec(app, Cluster(n_nodes=4))
            pairs.setdefault(app.name, []).append(
                (scale, RunCache.key_for(spec)))
    assert {name: digest(keyed) for name, keyed in pairs.items()} == {
        "Radix":
            "523007cd0da4ce4a7a8acf41e31eaaab6f1c20b4025d3d98698520a052bb7589",
        "EM3D(write)":
            "95b6f3ab84ade9cfbb5ba39ce47fa0ff9f13b73752de29420a83e3ba93d22712",
        "EM3D(read)":
            "de5864312da2173ffbaf869b933cde9311ba8b56b3a2f48875fcb24a713d1cca",
        "Sample":
            "cb3624c260e54f460dd220d28701d46d2dd42c84a10b0e15f31f0d2ac16ecd39",
        "Barnes":
            "6aa2dca2726887181c527d2b24543f462dcf56f6375881d6a00f66004207f0a7",
        "P-Ray":
            "cf453aee016c0164d62ace3f5cbae06b2d85dede2c1f3c03c9fe676054bc8b24",
        "Murphi":
            "6ec196e6f9c79ab40990d45584014127a5ad48c60c60c422470427fb82971d52",
        "Connect":
            "c4ff24d700bb2be75e014773abce3be1c96265dcc7b43b32e349be9a95e92e1f",
        "NOW-sort":
            "4787076ec29d14808276eca2a654daa89ac95e3bf4e98230e1f669eff8210c1c",
        "Radb":
            "5e9f72443fa9ce1842494db1f0069b6f8ae46051de1a7a678c9d93774bdb7815",
    }


def test_the_cost_and_scaling_studies_keep_their_keys():
    """The investment study is the one plan that sets a cost model (a
    2x CPU); the scaling study runs one app at several sizes."""
    assert task_digest(investment_study(n_nodes=8, scale=0.05)) == \
        "d3d41e90b5d9a48b9e2824c1af133852e2430946e5750e3d516b9ab7b1233386"
    assert task_digest(scaling_study(node_counts=(4, 8),
                                     scale=0.05)) == \
        "89b0bff89653290e488aaccdf3d4d6b70062440265e5b3b1009fe282c4165b78"


def test_the_runs_pinned_elsewhere_keep_their_keys():
    """The keys of runs whose output other files pin: CI's Radix run
    (``test_runs_pinned.py``) and the flow-certified tree's two
    (``test_simflow.py``)."""
    def key(app, n_nodes, params, seed):
        return RunCache.key_for(run_key_spec(
            app, Cluster(n_nodes, params, TuningKnobs(), seed=seed)))

    assert key(RadixSort(keys_per_proc=64), 8, LogGPParams.berkeley_now(),
               11) == \
        "6bfc2166519ecd05805d8a4789de723103481fb1d28d586c0ffcd8d75ea47ef6"
    assert key(RadixSort(keys_per_proc=32), 4, LogGPParams(), 3) == \
        "9cbbe7515f549948c33edf4269632b62ed242638d0f2435eba206d0eaa967b3e"
    assert key(Barnes(bodies_per_proc=8), 4, LogGPParams(), 3) == \
        "63a2f265f2d84ac0c4739c2d151f5ca02f6f639d91791239e10db6835ca0a016"
