"""The four ledger workloads, built only from ``repro``'s public entry points.

A workload is a fixed list of *ops*.  ``Op.run`` is the timed call into
the program; ``Op.inspect`` turns its return value into an
:class:`Outcome` (fingerprint of the simulated state, exact counts)
*outside* the timed region, and raises when the output is wrong.  The
runner (``run.py``) repeats the op list round after round and keeps
each op's typical scaled seconds (``yardstick.py``).

Nothing here sets ``engine=``: the ledger must survive the one-engine
decision.  Every ``RunCache``/``ResultStore`` lives under the per-run
temp dir the runner hands in.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro import Cluster, LogGPParams, TuningKnobs
from repro.cost import predict_sweep, record_run
from repro.harness import (CampaignSpec, ResultStore, RunCache,
                           render_campaign, run_campaign, suite_for)
from repro.instruments.trace import MessageTracer
from repro.serve import OFFERED_LOAD_GRID, FanoutServe, KVServe

from yardstick import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Outcome:
    """What one op produced, as checked after the clock stopped."""

    #: sha-256 over the op's simulated state; exact for a seed.
    fingerprint: str
    #: Results ("points") the op delivered to its caller.
    points: int = 1
    #: Exact counts, keyed by per-layer metric name; summed over ops.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-op facts a workload aggregates itself (never summed).
    info: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Op:
    name: str
    #: cold | warm | sanitize | tracer | record | predict
    phase: str
    run: Callable[[], Any]
    inspect: Callable[[Any], Outcome]


def digest(*parts: Any) -> str:
    """sha-256 of JSON-able parts (sorted keys, so dict order is moot)."""
    text = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def simulated_state(result) -> dict:
    """The part of a ``RunResult`` that is a pure function of the seed.

    ``events_processed`` is deliberately absent: ROADMAP plans to fuse
    events per message, which changes it and nothing else.
    """
    return {"runtime_us": result.runtime_us,
            "stats": result.stats.to_dict()}


def sim_counts(results) -> Dict[str, float]:
    """Exact per-layer counts of a set of simulated runs."""
    counts = {"sim.events": 0, "am.msgs": 0, "am.retransmissions": 0,
              "network.packets_dropped": 0, "network.bulk_bytes": 0,
              "gas.failed_lock_attempts": 0, "gas.barriers": 0}
    for result in results:
        stats = result.stats
        counts["sim.events"] += result.events_processed
        counts["am.msgs"] += stats.total_messages
        counts["am.retransmissions"] += stats.total_retransmissions
        counts["network.packets_dropped"] += stats.total_packets_dropped
        counts["network.bulk_bytes"] += int(stats.bulk_bytes_sent.sum())
        counts["gas.failed_lock_attempts"] += int(
            stats.failed_lock_attempts.sum())
        counts["gas.barriers"] += int(stats.barriers.sum())
    return counts


def plain_outcome(result) -> Outcome:
    """Outcome of one unobserved ``Cluster.run``."""
    return Outcome(digest(simulated_state(result)),
                   counts=sim_counts([result]))


class Workload:
    """Base: a named op list plus optional traced-run timers."""

    name = ""
    #: ``full`` is the frozen benchmark size; ``quick`` is for the test.
    SIZES: Dict[str, Dict[str, Any]] = {}

    def __init__(self, seed: int, tmp: Path, size: str) -> None:
        self.seed = seed
        self.tmp = tmp
        self.size = dict(self.SIZES[size])
        self.ops: List[Op] = []

    def begin_round(self, index: int) -> None:
        """Untimed per-round preparation (fresh stores and the like)."""

    def exact(self, outcomes: Dict[str, Outcome]) -> Dict[str, float]:
        """Exact counts of one round: the ops' counts, summed."""
        total: Dict[str, float] = {}
        for outcome in outcomes.values():
            for key, value in outcome.counts.items():
                total[key] = total.get(key, 0) + value
        return total

    def timers(self, clock: Clock) -> Dict[str, float]:
        """Host-time figures timed from outside, one public call each
        (traced runs only; keyed by per-layer metric name)."""
        return {}


# ---------------------------------------------------------------------------
# suite32_cold
# ---------------------------------------------------------------------------

class Suite32Cold(Workload):
    """The ten-app suite, each app one cold ``Cluster.run``."""

    name = "suite32_cold"
    SIZES = {"full": {"n_nodes": 32, "scale": 0.125},
             "quick": {"n_nodes": 8, "scale": 0.02}}

    def __init__(self, seed: int, tmp: Path, size: str) -> None:
        super().__init__(seed, tmp, size)
        n_nodes = self.size["n_nodes"]
        for app in suite_for(n_nodes, scale=self.size["scale"]):
            self.ops.append(Op(
                f"run:{app.name}", "cold",
                partial(self._run, n_nodes, app), plain_outcome))

    def _run(self, n_nodes: int, app):
        return Cluster(n_nodes, seed=self.seed).run(app)

    def timers(self, clock: Clock) -> Dict[str, float]:
        # Self-contained copies of the two BENCH_6.json storms
        # (benchmarks/test_engine_throughput.py), so the old
        # trajectory stays comparable without importing from outside
        # bench/.
        events = _event_storm()
        msgs = 4 * 250
        return {
            "sim.storm_events_per_s":
                events / clock.typical_of(_event_storm, 7),
            "am.storm_msgs_per_s": msgs / clock.typical_of(_am_storm, 7),
        }


def _event_storm(n_processes: int = 200, hops: int = 50) -> int:
    from repro.sim import Simulator
    sim = Simulator()

    def bouncer(index):
        for _hop in range(hops):
            yield sim.timeout(1.0 + (index % 7) * 0.1)

    for index in range(n_processes):
        sim.process(bouncer(index))
    sim.run()
    return sim.events_processed


def _am_storm() -> int:
    from repro.am.layer import AmLayer, HandlerTable
    from repro.network.wire import Wire
    from repro.sim import Simulator
    sim = Simulator()
    params = LogGPParams.berkeley_now()
    wire = Wire(sim, params.latency)
    table = HandlerTable()
    table.register("storm", lambda am, pkt: None)
    ams = []
    for node in range(4):
        am = AmLayer(sim, node, params, TuningKnobs(), wire, table)
        am.host = None
        ams.append(am)

    def sender(am, peer):
        for i in range(250):
            yield from am.send_request(peer, "storm", i)
        yield from am.drain()

    procs = [sim.process(sender(am, (node + 1) % 4))
             for node, am in enumerate(ams)]
    sim.run(stop_event=sim.all_of(procs))
    return sim.events_processed


# ---------------------------------------------------------------------------
# campaign_grid
# ---------------------------------------------------------------------------

class CampaignGrid(Workload):
    """Every dial's baseline and extreme through ``run_campaign``,
    then regenerated from the cache and the store."""

    name = "campaign_grid"
    #: One spec per dial (a several-dial spec collides on the shared
    #: baseline key: README "Known issues").  Baseline value first.
    DIALS = (("overhead", (2.9, 102.9)), ("gap", (5.8, 105.0)),
             ("latency", (5.0, 105.0)), ("bulk_mb_s", (38.0, 1.0)),
             ("drop_rate", (0.0, 0.02)))
    APPS = ("Radix", "EM3D(read)", "NOW-sort")
    SIZES = {"full": {"n_nodes": 16, "scale": 0.02, "warm_passes": 8},
             "quick": {"n_nodes": 4, "scale": 0.01, "warm_passes": 2}}

    def __init__(self, seed: int, tmp: Path, size: str) -> None:
        super().__init__(seed, tmp, size)
        self.specs = [
            CampaignSpec(name=f"ledger-{dial}", apps=self.APPS,
                         node_counts=(self.size["n_nodes"],),
                         dials=((dial, values),), seeds=(seed,),
                         scale=self.size["scale"])
            for dial, values in self.DIALS]
        self.n_points = sum(len(spec.points()) for spec in self.specs)
        for spec in self.specs:
            self.ops.append(Op(f"cold:{spec.dials[0][0]}", "cold",
                               partial(self._cold, spec),
                               partial(self._inspect_cold, spec)))
        self.ops.append(Op("warm", "warm", self._warm,
                           self._inspect_warm))
        self.round_dir = None

    def begin_round(self, index: int) -> None:
        if self.round_dir is not None:
            shutil.rmtree(self.round_dir)
        self.round_dir = self.tmp / f"round-{index}"
        self.round_dir.mkdir()
        self.cache = RunCache(self.round_dir / "cache")
        self.store_path = self.round_dir / "cold.sqlite"
        #: Run keys already simulated this round: the later dials'
        #: baselines are cache hits of the first dial's.
        self.seen: set = set()

    def _cold(self, spec: CampaignSpec):
        with ResultStore(self.store_path) as store:
            return run_campaign(spec, store, cache=self.cache, jobs=1)

    def _inspect_cold(self, spec: CampaignSpec, report) -> Outcome:
        if report.na_points:
            raise AssertionError(
                f"{spec.name}: {report.na_points} N/A point(s)")
        with ResultStore(self.store_path) as store:
            points = list(store.points(spec.name))
        if len(points) != report.total_points:
            raise AssertionError(
                f"{spec.name}: store holds {len(points)} of "
                f"{report.total_points} points")
        fresh = [p for p in points if p.key not in self.seen]
        self.seen.update(p.key for p in points)
        if len(fresh) != report.computed_points:
            raise AssertionError(
                f"{spec.name}: {report.computed_points} computed but "
                f"{len(fresh)} new run keys")
        counts = sim_counts([p.result for p in fresh])
        counts["harness.computed_points"] = report.computed_points
        counts["harness.cache_hits"] = report.cache_hits
        return Outcome(
            digest([simulated_state(p.result) for p in points]),
            points=report.total_points, counts=counts)

    def _regenerate(self, store_path: Path):
        """One warm pass: refill a fresh store from the cache, resume
        everything from that store, render the artifacts."""
        with ResultStore(store_path) as store:
            refill = [run_campaign(spec, store, cache=self.cache, jobs=1)
                      for spec in self.specs]
            resume = [run_campaign(spec, store, cache=self.cache, jobs=1)
                      for spec in self.specs]
            text = render_campaign(self.specs, store)
        return refill, resume, text

    def _warm(self):
        # Fixed pass count, not "until a second has passed": the op's
        # work is then the same every round and its samples compare.
        return [self._regenerate(self.round_dir / f"warm-{k}.sqlite")
                for k in range(self.size["warm_passes"])]

    def _inspect_warm(self, passes) -> Outcome:
        texts = {text for _refill, _resume, text in passes}
        if len(texts) != 1:
            raise AssertionError("warm passes rendered differently")
        refill, resume, text = passes[-1]
        hits = sum(r.cache_hits for r in refill)
        resumed = sum(r.resumed_points for r in resume)
        computed = sum(r.computed_points for r in refill + resume)
        if (hits, resumed, computed) != (self.n_points, self.n_points, 0):
            raise AssertionError(
                f"warm pass simulated: {hits} cache hits, {resumed} "
                f"resumed, {computed} computed of {self.n_points}")
        entries = list(self.cache.root.glob("*.json"))
        payload = sum(path.stat().st_size for path in entries)
        return Outcome(
            digest(text), points=len(passes) * self.n_points,
            counts={"harness.cache_hits": hits,
                    "harness.resumed_points": resumed,
                    "harness.payload_bytes_per_point":
                        payload / len(entries)})

    def timers(self, clock: Clock) -> Dict[str, float]:
        """The warm path, piece by piece, on this run's own payloads."""
        points = [p for spec in self.specs for p in spec.points()]
        results = [self.cache.get(p.spec)[0] for p in points]
        scratch = self.tmp / "timers"
        counter = itertools.count()
        spec0 = self.specs[0]

        def cache_put():
            cache = RunCache(scratch / f"cache-{next(counter)}")
            for point, result in zip(points, results):
                cache.put(point.spec, result=result)

        def store_put():
            with ResultStore(scratch / f"s-{next(counter)}.sqlite") as s:
                for p, result in zip(points, results):
                    s.put(p.parameter, p.key, app=p.app_name,
                          n_nodes=p.n_nodes, parameter=p.parameter,
                          value=p.value, seed=p.seed, spec=p.spec,
                          result=result)

        def store_read():
            with ResultStore(self.store_path) as store:
                for spec in self.specs:
                    list(store.points(spec.name))

        def render():
            with ResultStore(self.store_path) as store:
                render_campaign(self.specs, store)

        dicts = [result.to_dict() for result in results]
        from_dict = type(results[0]).from_dict
        per_point = 1e6 / len(points)

        def us(fn) -> float:
            return clock.typical_of(fn) * per_point

        out = {
            "harness.campaign.expand_us_per_point":
                clock.typical_of(spec0.points) * 1e6 / len(spec0.points()),
            "harness.runcache.put_us": us(cache_put),
            "harness.runcache.get_us": us(
                lambda: [self.cache.get(p.spec) for p in points]),
            "harness.store.put_us": us(store_put),
            "harness.store.read_us_per_row": us(store_read),
            "cluster.to_dict_us": us(
                lambda: [r.to_dict() for r in results]),
            "cluster.from_dict_us": us(
                lambda: [from_dict(d) for d in dicts]),
            "harness.campaign.render_s": clock.typical_of(render),
        }
        shutil.rmtree(scratch)
        return out


# ---------------------------------------------------------------------------
# serve_knee
# ---------------------------------------------------------------------------

class ServeKnee(Workload):
    """Open-system serving at a million users, up to and past the
    knee, at two overheads."""

    name = "serve_knee"
    OVERHEADS = (2.9, 10.0)
    SLO_US = 250.0
    SIZES = {"full": {"n_nodes": 32, "max_requests": 4000},
             "quick": {"n_nodes": 8, "max_requests": 300}}

    def __init__(self, seed: int, tmp: Path, size: str) -> None:
        super().__init__(seed, tmp, size)
        knobs = dict(n_users=1_000_000, slo_us=self.SLO_US,
                     service_us=4.0,
                     max_requests=self.size["max_requests"])
        kv = KVServe(**knobs)
        base_o = LogGPParams.berkeley_now().overhead
        for overhead in self.OVERHEADS:
            dial = TuningKnobs.added_overhead(overhead - base_o)
            for rps in OFFERED_LOAD_GRID:
                self._add(f"kv:o{overhead:g}:{rps:g}",
                          kv.with_changes(offered_rps=rps), dial,
                          {"overhead": overhead, "rps": rps})
        self._add("kv:bursty",
                  kv.with_changes(offered_rps=400_000.0,
                                  arrivals="bursty"), TuningKnobs(), {})
        self._add("fanout",
                  FanoutServe(offered_rps=100_000.0, **knobs),
                  TuningKnobs(), {})
        self.tier = kv.tier()

    def _add(self, name: str, app, knobs: TuningKnobs,
             info: Dict[str, Any]) -> None:
        self.ops.append(Op(name, "cold", partial(self._run, app, knobs),
                           partial(self._inspect, info)))

    def _run(self, app, knobs: TuningKnobs):
        return Cluster(self.size["n_nodes"], knobs=knobs,
                       seed=self.seed).run(app)

    def _inspect(self, info: Dict[str, Any], result) -> Outcome:
        serving = result.output
        if serving.completed + serving.dropped != serving.arrivals:
            raise AssertionError(
                f"{serving.arrivals} arrivals but {serving.completed} "
                f"completed + {serving.dropped} dropped")
        outcome = plain_outcome(result)
        outcome.counts["serve.requests"] = serving.arrivals
        outcome.counts["serve.saturated_points"] = int(serving.saturated)
        met = (not serving.saturated and serving.p99_us is not None
               and serving.p99_us <= self.SLO_US)
        outcome.info = dict(info, met=met)
        return outcome

    def exact(self, outcomes: Dict[str, Outcome]) -> Dict[str, float]:
        counts = super().exact(outcomes)
        # The knee: the highest offered rate whose p99 met the SLO
        # without the backlog guard tripping.  Simulated, so exact.
        for overhead in self.OVERHEADS:
            met = [o.info["rps"] for o in outcomes.values()
                   if o.info.get("overhead") == overhead
                   and o.info["met"]]
            counts[f"serve.knee_rps.o{overhead:g}"] = max(met, default=0)
        return counts

    def timers(self, clock: Clock) -> Dict[str, float]:
        n_requests = len(self.tier.trace(self.seed))
        seconds = clock.typical_of(lambda: self.tier.trace(self.seed))
        return {"serve.trace_us_per_req": seconds * 1e6 / n_requests}


# ---------------------------------------------------------------------------
# observed_suite
# ---------------------------------------------------------------------------

class ObservedSuite(Workload):
    """Two apps run plain and under each observer, then
    ``predict_sweep`` from the recorded graphs."""

    name = "observed_suite"
    APPS = ("EM3D(write)", "Sample")
    PREDICT = (("overhead", (2.9, 12.9, 52.9, 102.9)),
               ("gap", (5.8, 15.0, 55.0, 105.0)),
               ("latency", (5.0, 15.0, 55.0, 105.0)),
               ("bulk_mb_s", (38.0, 10.0, 5.0, 1.0)))
    SIZES = {"full": {"n_nodes": 32, "scale": 0.1},
             "quick": {"n_nodes": 8, "scale": 0.02}}

    def __init__(self, seed: int, tmp: Path, size: str) -> None:
        super().__init__(seed, tmp, size)
        n_nodes = self.size["n_nodes"]
        apps = suite_for(n_nodes, scale=self.size["scale"],
                         names=self.APPS)
        #: This round's plain fingerprint and recorded graph, per app.
        self.plain: Dict[str, str] = {}
        self.graphs: Dict[str, Any] = {}
        for app in apps:
            name = app.name
            self.ops += [
                Op(f"plain:{name}", "cold", partial(self._run, app),
                   partial(self._inspect_plain, name)),
                Op(f"sanitize:{name}", "sanitize",
                   partial(self._run, app, sanitize=True),
                   partial(self._inspect_sanitized, name)),
                Op(f"tracer:{name}", "tracer",
                   partial(self._run_traced, app),
                   partial(self._inspect_traced, name)),
                Op(f"record:{name}", "record",
                   partial(record_run, app, n_nodes, seed=seed),
                   partial(self._inspect_recorded, name)),
            ]
        for name in self.APPS:
            self.ops.append(Op(f"predict:{name}", "predict",
                               partial(self._predict, name),
                               self._inspect_predicted))

    def _run(self, app, sanitize: bool = False, tracer=None):
        return Cluster(self.size["n_nodes"], seed=self.seed,
                       sanitize=sanitize).run(app, tracer=tracer)

    def _run_traced(self, app):
        tracer = MessageTracer()
        return self._run(app, tracer=tracer), tracer

    def _inspect_plain(self, name: str, result) -> Outcome:
        outcome = plain_outcome(result)
        self.plain[name] = outcome.fingerprint
        return outcome

    def _observed(self, name: str, result) -> Outcome:
        """Observation must not perturb the simulation."""
        fingerprint = digest(simulated_state(result))
        if fingerprint != self.plain[name]:
            raise AssertionError(
                f"{name}: observed run differs from the plain run")
        return Outcome(fingerprint)

    def _inspect_sanitized(self, name: str, result) -> Outcome:
        if not result.sanitizer.clean:
            raise AssertionError(
                f"{name}: simsan reported "
                f"{len(result.sanitizer.races)} race(s)")
        return self._observed(name, result)

    def _inspect_traced(self, name: str, value) -> Outcome:
        result, tracer = value
        if len(tracer) == 0:
            raise AssertionError(f"{name}: tracer saw no messages")
        return self._observed(name, result)

    def _inspect_recorded(self, name: str, value) -> Outcome:
        graph, result = value
        self.graphs[name] = graph
        return self._observed(name, result)

    def _predict(self, name: str):
        graph = self.graphs[name]
        return [predict_sweep(graph, dial, values)
                for dial, values in self.PREDICT]

    def _inspect_predicted(self, sweeps) -> Outcome:
        runtimes = [[p.runtime_us for p in sweep.points]
                    for sweep in sweeps]
        return Outcome(digest(runtimes),
                       points=sum(len(row) for row in runtimes))

    def timers(self, clock: Clock) -> Dict[str, float]:
        """simlint and simflow over the tree, per source line."""
        lines = sum(len(path.read_bytes().splitlines())
                    for path in (SRC / "repro").rglob("*.py"))

        def analysis(*flags: str) -> float:
            env = dict(os.environ, PYTHONPATH=str(SRC))
            done, seconds, _wall = clock.time(lambda: subprocess.run(
                [sys.executable, "-m", "repro.analysis", *flags,
                 str(SRC / "repro")],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True))
            if done.returncode not in (0, 1):  # 1 = findings, still ran
                raise RuntimeError(
                    f"repro.analysis {flags} failed:\n{done.stderr}")
            return seconds

        return {
            "analysis.simlint_lines_per_s": lines / analysis(),
            # --deep runs the simlint pass and then simflow.
            "analysis.simflow_lines_per_s": lines / analysis("--deep"),
        }


WORKLOADS: Tuple[type, ...] = (Suite32Cold, CampaignGrid, ServeKnee,
                               ObservedSuite)
