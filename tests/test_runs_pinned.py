"""Simulated runs, pinned to constants.

The sibling of ``test_run_keys_pinned.py``: that file pins the key a run
is cached under, this one pins what the run produces.  A refactor below
the harness (a collective rewritten, a handler folded, a hook moved)
that shifts one simulated microsecond, one event or one counter still
passes every test that compares two runs of the same code — and
silently changes every number the report prints.  These digests are
what the runs *were*.

``CACHE_FORMAT`` is the one legitimate reason to re-pin; anything else
that moves a digest is a bug in the change, not in this file.
"""

import hashlib
import itertools
import json

import repro.network.packet as packet_module
from repro.am.tuning import TuningKnobs
from repro.apps import RadixSort, default_suite
from repro.cluster.machine import Cluster
from repro.coll.algorithms import REGISTRY
from repro.coll.bench import CollectiveBench
from repro.cost import DepRecorder, predict_sweep, record_run
from repro.network.faults import FaultPlan
from repro.network.loggp import LogGPParams
from repro.serve import FanoutServe, KVServe
from tests.test_simcost_equivalence import v1_json


def run_digest(result):
    """sha256 over (runtime, events, the stats record)."""
    text = json.dumps([result.runtime_us, result.events_processed,
                       json.dumps(result.stats.to_dict(), sort_keys=True)])
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_suite_runs_as_it_always_has():
    got = {f"{app.name}@{n}": run_digest(Cluster(n, seed=13).run(app))
           for n, scale in ((5, 0.05), (8, 0.1))
           for app in default_suite(scale)}
    assert got == {
        "Radix@5":
            "c1ad746bdf6a7a6869e3ada4ac29adcaf95e880aeb54557348cb5484be59128c",
        "EM3D(write)@5":
            "62346ecf3daa6f8b3a855c896f216a0c360f4b2455851995a6f3cce5d18ebbb1",
        "EM3D(read)@5":
            "c8f7f9e5a486842ba24ba5b3d52a07c22f8ef1d9e4f9eb53c13efea33ee59d95",
        "Sample@5":
            "e07483d7fb535a98e64f601f1636b1abbd36660d4ad5a256a1c6c67d2439d466",
        "Barnes@5":
            "d4a74765a4caa4a0fd836c611da540bf08178571b860b87822c26aa21ba3e5a4",
        "P-Ray@5":
            "2644a5acda84a4f75c117854bd7248ffcf46c4ecf9c695892a6db2fd2f55f55a",
        "Murphi@5":
            "965b3b3b45d8e36c12f5b448563a30237c0d5cc00f2818ff0bd9b66aebe213eb",
        "Connect@5":
            "20a91f8c962abc3a125956bc8bc99345ecd6f1a4d912d871f65c926763f86c48",
        "NOW-sort@5":
            "841190c9b0c18720d99e7dd2f1b1aa8f41b717b050113c43e471e5941dd99ef4",
        "Radb@5":
            "fe434fc1174e743f9623758c9cce08e82b312b46813e8910883bd95179230377",
        "Radix@8":
            "e0c70b93380e2d658528da86fff80b5c2109e055004ebb0f07425544c0cd36d3",
        "EM3D(write)@8":
            "f5290d7c01cd82f69c37da06001c5f56576477dbb7bfbcb43c0d9b26b4238bd0",
        "EM3D(read)@8":
            "519e065fc9d9280fddb39b70385220b6ae627a9040e607b86041ba981182fded",
        "Sample@8":
            "45df1ac91fea91391581929724a691ed48576f819fad253d011508573fc43de1",
        "Barnes@8":
            "26b11f42c4d014075249ff12cede2a659e68e8cde20de9ddb5323fc8a6b8b154",
        "P-Ray@8":
            "f9f85d5c5899a00c4012265625275b47ad63a7085acba854a18dda007d253f6f",
        "Murphi@8":
            "bc742e25a0fffce388ac41dab132c90389570c97dacb7932926df5eb112663f4",
        "Connect@8":
            "c164955c0d532a8549db126033e67ec949d512d7fa702f90a3577e433c3f9dad",
        "NOW-sort@8":
            "38aaaf8050eb6ab29b5805d7e90899b2a51e953b67ce6cefd7d52cb53b9f1dbb",
        "Radb@8":
            "e9e6761d97845ac09636589455368eaa5f3d8958ec1ae58d276ecf1140a46583",
    }


def test_every_registered_collective_runs_as_it_always_has():
    """Each (primitive, algorithm) at P = 3 and 8, short and bulk (a
    barrier carries no payload, so it runs short only): one digest per
    primitive over its runs in registry order."""
    got = {}
    for primitive, algos in REGISTRY.items():
        sizes = ((32, False),) if primitive == "barrier" else \
            ((32, False), (6000, True))
        runs = hashlib.sha256()
        for algo in algos:
            for n in (3, 8):
                for size, bulk in sizes:
                    result = Cluster(n, seed=5).run(CollectiveBench(
                        primitive, algo=algo, size=size, bulk=bulk,
                        iterations=2))
                    runs.update(run_digest(result).encode())
        got[primitive] = runs.hexdigest()
    assert got == {
        "barrier":
            "3c611236f8beb300fd3e88ab67c04669edb7a879696c29a60b3de40256be347e",
        "broadcast":
            "7648bc20b006706b60c3bee3f28e272b8ded6e8d60962e8dfae9c81a2bba0a25",
        "allreduce":
            "4fc3007a3aa07e7a2d0c83d50241a2413e31d95929c655a7e61678dc4fab03a8",
        "gather":
            "04806e42e531e3f0e02b27160d08c846310fc4335f517ef5846498bdb28ba9bd",
        "allgather":
            "414d2defd9378a82d9bb98653064aa777d515f4f1fd97a302b0bd392542e9cb7",
        "alltoall":
            "507a432d4887ed81effd3fd25a6e0bc16675a36ca1bcdb584632462a4c6779b2",
    }


#: CI's Radix run (``keys_per_proc=64``, P = 8, seed 11): the payload.
#: The key it is cached under is pinned in ``test_run_keys_pinned.py``.
PAYLOAD = "4542617c0d9f149a71e4f2c5f9ef7810615347d70bb6092e9c421f6bf344bdc9"


def radix_payload(**run):
    result = Cluster(8, seed=11, sanitize=run.pop("sanitize", False)).run(
        RadixSort(keys_per_proc=64), **run)
    text = json.dumps({"runtime_us": result.runtime_us,
                       "events": result.events_processed,
                       "stats": result.stats.to_dict()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_radix_is_the_pinned_run_with_or_without_observers():
    assert radix_payload() == PAYLOAD
    assert radix_payload(sanitize=True) == PAYLOAD
    recorder = DepRecorder()
    assert radix_payload(recorder=recorder) == PAYLOAD
    counts = recorder.graph.counts()
    assert counts["sends"] > 0 and counts["recvs"] > 0, counts


def test_recorded_graph_and_predicted_floats_are_the_pinned_ones(
        monkeypatch):
    # Transfer ids come from a process-wide counter and are part of the
    # graph: start it afresh, as a new interpreter would.
    monkeypatch.setattr(packet_module, "_sequence", itertools.count())
    graph, _ = record_run(RadixSort(keys_per_proc=64), 8, seed=11)
    # The content, rendered as the v1 JSON file it once was ...
    assert hashlib.sha256(v1_json(graph).encode()).hexdigest() == \
        "2954da38c440c4d3f126b13638c21c77019346a520b98c1f3c3a8eda225dfdae"
    # ... and the rows' bytes (not the .npz: zip entries carry times).
    assert hashlib.sha256(graph.rows.tobytes()).hexdigest() == \
        "44345ced1fe9fc9abb301774ae11948bde3580ae5769238316745a2caec7bbf9"
    sweep = predict_sweep(graph, "overhead", (2.9, 12.9, 52.9, 102.9))
    assert [point.runtime_us for point in sweep.points] == [
        4661.700000000056, 18521.119999999777,
        74528.60000000098, 144578.60000000076]


#: The serving scenarios at P = 8: the knobs on top of a small
#: ``KVServe``, or a ``FanoutServe`` of the same size, and the tuning.
_SERVING_BASE = dict(offered_rps=200_000.0, n_users=10_000,
                     duration_us=10_000.0, max_requests=300,
                     service_us=4.0, key_space=512)
SERVING_POINTS = {
    "kv": (KVServe, {}, TuningKnobs()),
    "kv:bursty": (KVServe, dict(arrivals="bursty", offered_rps=400_000.0),
                  TuningKnobs()),
    "kv:saturated": (KVServe, dict(
        offered_rps=5_000_000.0, service_us=20.0, max_requests=2000,
        max_backlog=64), TuningKnobs()),
    "fanout": (FanoutServe, dict(fanout=4, offered_rps=100_000.0),
               TuningKnobs()),
    "kv:o10": (KVServe, {}, TuningKnobs.added_overhead(
        10.0 - LogGPParams.berkeley_now().overhead)),
}


def test_serving_runs_as_they_always_have():
    """The open-system path (client tier, frontends, one- and
    multi-target requests, the saturation guard) pinned like the suite:
    ``stats.to_dict()`` carries the whole ``serving`` record."""
    got = {}
    for name, (app_class, knobs, tuning) in SERVING_POINTS.items():
        app = app_class(**dict(_SERVING_BASE, **knobs))
        result = Cluster(8, knobs=tuning, seed=13).run(app)
        assert "serving" in result.stats.to_dict()
        got[name] = run_digest(result)
    assert got == {
        "kv":
            "7c78ab81f7cbad5eae85a085afd20ddd751a95caa90e1b0af0c69866c52f70ed",
        "kv:bursty":
            "848c9e76f6612fcc36990bbd735d764edb9ce29f6e5a1d571141df68d53ab984",
        "kv:saturated":
            "ecff410d30791d203f3093e62c0eac2962cae5cad0360eddaa34b212e59b9190",
        "fanout":
            "24e537066017b31104bd1c2425ef8fa56ac5d42078a324cf7dfb102786e7b796",
        "kv:o10":
            "7e1f5f8565fc862f6ac416473e042c1bf91267b4a149ddf13967949e4cf42755",
    }


def test_serving_runs_off_the_knee_path_as_they_always_have():
    """Two serving paths the ledger's knee sweep never runs: a
    ``KVServe`` point on a lossy wire (retransmitted requests and
    replies reach the shard handlers and reply callbacks late), and the
    ``FanoutServe`` point under simsan, which clocks every sub-request
    and must leave the run as it is."""
    lossy = Cluster(8, faults=FaultPlan(drop_rate=0.02), seed=13).run(
        KVServe(**_SERVING_BASE))
    assert sum(lossy.stats.to_dict()["retransmissions"]) > 0 and \
        lossy.stats.serving.completed == 300
    fanout_class, knobs, tuning = SERVING_POINTS["fanout"]
    sanitized = Cluster(8, knobs=tuning, seed=13, sanitize=True).run(
        fanout_class(**dict(_SERVING_BASE, **knobs)))
    assert sanitized.sanitizer.clean and \
        sanitized.sanitizer.messages_clocked > 0
    assert {"kv:lossy": run_digest(lossy),
            "fanout:sanitized": run_digest(sanitized)} == {
        "kv:lossy":
            "2abcd381104ae187ae43e1ea885b798de3e08e9b3d730bced31f7eec539346cc",
        "fanout:sanitized":
            "24e537066017b31104bd1c2425ef8fa56ac5d42078a324cf7dfb102786e7b796",
    }
