"""Resumable simulation campaigns over a sqlite result store.

The paper's methodology is an argument product: every sensitivity
figure is (app × P × dial × value × seed), and each open ROADMAP item
multiplies the grid further.  A grid that takes hours must survive
being interrupted — by a crash, a Ctrl-C, a preempted CI runner, or a
single worker dying — without losing the points that already finished.
This module is that contract, modeled on MBradbury/slp's
``skip_completed_simulations`` + ``create_*_results.py`` split:

* :class:`CampaignSpec` — a declarative, JSON-round-trippable argument
  product over (app, P, dial, values, seed, faults).
  ``points()`` expands it into concrete
  :class:`~repro.harness.parallel.PointTask` work units, each tagged
  with the same content-addressed key the
  :class:`~repro.harness.runcache.RunCache` uses.
* :func:`run_campaign` — the resumable runner.  Points already in the
  :class:`~repro.harness.store.ResultStore` are skipped outright; the
  rest go through :func:`~repro.harness.parallel.run_points`, the same
  drain every sweep uses (cache probe, pool, re-queue after a worker
  crash), with a ``done`` callback that writes the store row — so each
  point is **persisted the moment it finishes**.
* query-side generation — :func:`sweep_from_store` /
  :func:`figure_from_store` / :func:`render_campaign` rebuild
  EXPERIMENTS-style artifacts from stored rows alone, so regeneration
  is a ``SELECT``, not a resimulation, and an interrupted-then-resumed
  campaign renders byte-identically to an uninterrupted one.

Crash-safety guarantees, precisely:

1. a point is either fully persisted (store row + cache entry) or will
   be re-run — there is no partial state;
2. restarting the same campaign recomputes exactly the points that
   never completed (``tests/test_campaign.py`` pins this with a
   differential interrupted-vs-uninterrupted test);
3. a SIGKILLed worker loses at most the points in flight; the runner
   finishes the campaign in the same invocation by re-queuing them.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import time
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.am.layer import DEFAULT_WINDOW
from repro.am.tuning import TuningKnobs
from repro.cluster.machine import Cluster
from repro.cluster.presets import MACHINE_PRESETS
from repro.gas.runtime import DEFAULT_LIVELOCK_LIMIT
from repro.harness.parallel import PointTask, default_jobs, run_points
from repro.harness.runcache import RunCache
from repro.harness.store import ResultStore
from repro.harness.suite import checked_scale, suite_for, suite_names
from repro.harness.sweeps import (DIALS, SensitivityFigure, SweepPoint,
                                  SweepResult, sweep_tasks)
from repro.network.faults import DelaySpike, FaultPlan

__all__ = ["CampaignSpec", "CampaignPoint", "CampaignReport",
           "CampaignInterrupted", "run_campaign", "sweep_from_store",
           "EnsembleSweep", "ensemble_from_store",
           "figure_from_store", "render_campaign"]


class CampaignInterrupted(RuntimeError):
    """Raised when a campaign stops early (``interrupt_after``).

    Everything computed so far is already persisted; re-running the
    same campaign resumes from the store.  Exists so tests and drills
    can interrupt a campaign at a deterministic point instead of
    SIGKILLing the process (CI does both).
    """


@dataclass(frozen=True)
class CampaignPoint:
    """One expanded point of a campaign's argument product."""

    app_name: str
    n_nodes: int
    parameter: str
    value: float
    seed: int
    task: PointTask
    #: The task's canonical key-spec dict and its SHA-256 — the identity
    #: shared by the store and the run cache.
    spec: Dict[str, Any]
    key: str


def _check_keys(kind: str, klass: type, data: Dict[str, Any]) -> None:
    """Refuse, by name, a key of ``data`` that is not a field of the
    dataclass ``klass``, or a field without a default that it lacks."""
    known = {klass_field.name: klass_field for klass_field in fields(klass)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {kind} key(s) {unknown}; "
                         f"one of {sorted(known)}")
    missing = [name for name, klass_field in known.items()
               if name not in data and klass_field.default is MISSING
               and klass_field.default_factory is MISSING]
    if missing:
        raise ValueError(f"{kind} lacks key(s) {missing}")


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative argument product over the simulation grid.

    ``dials`` pairs each swept parameter — a row of
    :data:`~repro.harness.sweeps.DIALS` — with its value grid; the
    product over (apps × node_counts × dials × seeds × values) is the
    campaign.  Value order within a dial is preserved — the first
    value is that sweep's baseline, exactly as in
    :mod:`repro.harness.sweeps`.
    """

    name: str
    apps: Tuple[str, ...]
    node_counts: Tuple[int, ...]
    dials: Tuple[Tuple[str, Tuple[float, ...]], ...]
    seeds: Tuple[int, ...] = (0,)
    scale: float = 1.0
    machine: str = "berkeley-now"
    run_limit_us: Optional[float] = None
    livelock_limit: int = DEFAULT_LIVELOCK_LIMIT
    window: int = DEFAULT_WINDOW
    #: Base fault plan applied to every point (the ``drop_rate`` dial
    #: overrides its drop rate per value).
    faults: Optional[FaultPlan] = None
    #: Open-system serving workload: the constructor-knob dict a
    #: :func:`repro.serve.apps.serving_app_from_dict` builds from
    #: (``{"app": "kvserve", ...}``).  When set, ``apps`` must name
    #: exactly that scenario, the ``offered_rps`` dial becomes
    #: sweepable, and ``scale`` does not apply (the client tier's own
    #: knobs size the run).  Stored as a sorted key/value tuple so the
    #: spec stays frozen/hashable; ``to_dict`` round-trips the dict.
    workload: Optional[Any] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(self.apps))
        object.__setattr__(self, "node_counts", tuple(self.node_counts))
        object.__setattr__(self, "dials", tuple(
            (parameter, tuple(values)) for parameter, values in self.dials))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        app = None
        if self.workload is not None:
            workload = dict(self.workload)
            object.__setattr__(self, "workload", tuple(
                (str(key), workload[key]) for key in sorted(workload)))
            if "app" not in workload:
                raise ValueError(
                    "workload needs an 'app' key naming the serving "
                    "scenario (see repro.serve.SERVING_APPS)")
            if self.apps != (workload["app"],):
                raise ValueError(
                    f"a workload campaign's apps must be exactly "
                    f"({workload['app']!r},), got {self.apps}")
            from repro.serve.apps import serving_app_from_dict
            app = serving_app_from_dict(workload)  # refuses a knob by name
        if not self.name:
            raise ValueError("campaign needs a non-empty name")
        # An empty axis is a campaign of no points, and a repeat adds no
        # point of its own: a dial named twice would render its first
        # grid twice, a seed named twice would read as a failed one.
        for kind, items in (("app", self.apps),
                            ("node count", self.node_counts),
                            ("dial", [dial for dial, _values in self.dials]),
                            ("seed", self.seeds)):
            if not items:
                raise ValueError(f"campaign {self.name!r} names no {kind}")
            for index, item in enumerate(items):
                if item in items[:index]:
                    raise ValueError(
                        f"campaign {self.name!r} names {kind} {item!r} "
                        "twice")
        if self.workload is None:
            suite_names(",".join(self.apps))
        checked_scale(self.scale)
        if self.machine not in MACHINE_PRESETS:
            raise ValueError(
                f"unknown machine preset {self.machine!r}; "
                f"one of {sorted(MACHINE_PRESETS)}")
        # Each value is refused by the code that owns it, before a store
        # opens: Cluster the node counts (and the machine fields), each
        # dial's turn its values.
        params = MACHINE_PRESETS[self.machine]
        for n_nodes in self.node_counts:
            Cluster(n_nodes, params=params, window=self.window,
                    run_limit_us=self.run_limit_us,
                    livelock_limit=self.livelock_limit)
        for parameter, values in self.dials:
            if parameter not in DIALS:
                raise ValueError(
                    f"unknown dial {parameter!r}; one of {tuple(DIALS)}")
            if parameter == "offered_rps" and self.workload is None:
                raise ValueError(
                    "dial 'offered_rps' needs a workload: only a serving "
                    "app has a client tier to offer load to")
            if not values:
                raise ValueError(f"dial {parameter!r} has no values")
            for value in values:
                try:
                    DIALS[parameter].turn(value, app, params, TuningKnobs(),
                                          self.faults)
                except ValueError as error:
                    raise ValueError(f"dial {parameter!r} value {value!r}: "
                                     f"{error}") from None

    # -- expansion ---------------------------------------------------------
    def values_for(self, parameter: str) -> Tuple[float, ...]:
        """The value grid of one dial, in sweep (baseline-first) order."""
        for dial, values in self.dials:
            if dial == parameter:
                return values
        raise KeyError(f"campaign {self.name!r} has no dial {parameter!r}")

    def points(self) -> List[CampaignPoint]:
        """The full argument product as concrete work units.

        Deterministic order: apps × node_counts × dials × seeds ×
        values.  Raises early (before any simulation) if an app name is
        unknown or a key-spec value has an unstable repr.
        """
        params = MACHINE_PRESETS[self.machine]
        points: List[CampaignPoint] = []
        for app_name, n_nodes in itertools.product(self.apps,
                                                   self.node_counts):
            if self.workload is not None:
                from repro.serve.apps import serving_app_from_dict
                app = serving_app_from_dict(dict(self.workload))
            else:
                app = suite_for(n_nodes, scale=self.scale,
                                names=[app_name])[0]
            for (parameter, values), seed in itertools.product(
                    self.dials, self.seeds):
                for task in sweep_tasks(
                        app, n_nodes, DIALS[parameter], values,
                        params=params, faults=self.faults, seed=seed,
                        run_limit_us=self.run_limit_us,
                        livelock_limit=self.livelock_limit,
                        window=self.window):
                    points.append(CampaignPoint(
                        app_name=app_name, n_nodes=n_nodes,
                        parameter=parameter, value=task.value, seed=seed,
                        task=task, spec=task.spec, key=task.key))
        return points

    # -- JSON round trip (spec files for the CLI / CI) ---------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form; ``from_dict`` round-trips it exactly."""
        import dataclasses
        return {
            "name": self.name,
            "apps": list(self.apps),
            "node_counts": list(self.node_counts),
            "dials": [[parameter, list(values)]
                      for parameter, values in self.dials],
            "seeds": list(self.seeds),
            "scale": self.scale,
            "machine": self.machine,
            "run_limit_us": self.run_limit_us,
            "livelock_limit": self.livelock_limit,
            "window": self.window,
            "faults": (dataclasses.asdict(self.faults)
                       if self.faults is not None else None),
            "workload": (dict(self.workload)
                         if self.workload is not None else None),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec produced by :meth:`to_dict` (or hand-written).

        Each key is a field; an omitted one takes the field's default.
        An unknown key, in the spec, its fault plan or one of the plan's
        spikes, is refused by name, so a misspelled one cannot fall back
        to its default unnoticed; so is a missing key with no default.
        """
        _check_keys("campaign spec", cls, data)
        faults = data.get("faults")
        if faults is not None:
            _check_keys("fault plan", FaultPlan, faults)
            spikes = faults.get("spikes", ())
            for spike in spikes:
                _check_keys("delay spike", DelaySpike, spike)
            faults = FaultPlan(**{
                **faults,
                "spikes": tuple(DelaySpike(**spike) for spike in spikes),
                "drop_kinds": (tuple(faults["drop_kinds"])
                               if faults.get("drop_kinds") else None),
            })
        return cls(**{**data, "faults": faults})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class CampaignReport:
    """Resume and throughput accounting for one ``run_campaign`` call."""

    campaign: str
    total_points: int
    #: Points skipped because the store already had them (the resume).
    resumed_points: int
    #: Store misses served from the RunCache without simulating.
    cache_hits: int
    #: Points actually simulated by this invocation.
    computed_points: int
    #: Tasks re-queued after a worker crash broke the pool.
    requeued_points: int
    #: Points (stored or computed) that ended as N/A failures.
    na_points: int
    stale_tmps_removed: int
    jobs: int
    elapsed_s: float

    @property
    def points_per_sec(self) -> float:
        """Computed-point throughput of this invocation."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.computed_points / self.elapsed_s

    def to_dict(self) -> Dict[str, Any]:
        """The ``BENCH_campaign_*.json`` payload."""
        return {
            "schema": "repro-campaign-bench-v1",
            "campaign": self.campaign,
            "total_points": self.total_points,
            "resumed_points": self.resumed_points,
            "cache_hits": self.cache_hits,
            "computed_points": self.computed_points,
            "requeued_points": self.requeued_points,
            "na_points": self.na_points,
            "stale_tmps_removed": self.stale_tmps_removed,
            "jobs": self.jobs,
            "elapsed_s": round(self.elapsed_s, 3),
            "points_per_sec": round(self.points_per_sec, 3),
        }

    def describe(self) -> str:
        """One-line summary for CLI output."""
        return (f"campaign {self.campaign}: {self.total_points} points "
                f"({self.resumed_points} resumed, {self.cache_hits} cache "
                f"hits, {self.computed_points} computed, "
                f"{self.requeued_points} requeued after crashes) in "
                f"{self.elapsed_s:.1f}s "
                f"[{self.points_per_sec:.2f} points/s]")


def run_campaign(spec: CampaignSpec, store: ResultStore,
                 cache: Optional[RunCache] = None,
                 jobs: Optional[int] = None,
                 interrupt_after: Optional[int] = None,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> CampaignReport:
    """Run (or resume) one campaign; every finished point is durable.

    The store is consulted first — points with rows are never re-run.
    The rest are drained by :func:`~repro.harness.parallel.run_points`
    exactly as a sweep's points are; what the campaign adds is the
    store tier (a row per point the moment it is served or computed),
    the de-dup of run keys shared between dials, and the report.

    ``interrupt_after=N`` raises :class:`CampaignInterrupted` after N
    newly simulated points have been persisted — the deterministic
    stand-in for a mid-campaign crash.
    """
    started = time.perf_counter()
    say = progress if progress is not None else (lambda _line: None)
    stale = cache.sweep_stale_tmps() if cache is not None else 0
    if stale:
        say(f"swept {stale} stale cache tmp file(s)")

    # Every dial's first value is the unmodified machine, so a
    # multi-dial spec names that run once per dial.  One key is one
    # point of work and one store row: keep the first occurrence.
    unique: Dict[str, CampaignPoint] = {}
    for point in spec.points():
        unique.setdefault(point.key, point)
    points = list(unique.values())
    stored: Set[str] = store.keys(spec.name)
    pending = [p for p in points if p.key not in stored]
    resumed = len(points) - len(pending)
    if resumed:
        say(f"resume: {resumed}/{len(points)} points already stored")

    workers = jobs if jobs is not None else default_jobs()
    cache_hits = computed = requeued = 0

    def done(index: int, sweep_point: SweepPoint, from_cache: bool) -> None:
        nonlocal cache_hits, computed
        point = pending[index]
        store.put(spec.name, point.key, app=point.app_name,
                  n_nodes=point.n_nodes, parameter=point.parameter,
                  value=point.value, seed=point.seed, spec=point.spec,
                  result=sweep_point.result, failure=sweep_point.failure)
        if from_cache:
            cache_hits += 1
            return
        computed += 1
        # The drain probes the cache before it simulates anything, so
        # every hit is already counted.
        todo = len(pending) - cache_hits
        if computed % 10 == 0 or computed == todo:
            say(f"{computed}/{todo} computed "
                f"({store.count(spec.name)}/{len(points)} stored)")
        if interrupt_after is not None and computed >= interrupt_after:
            raise CampaignInterrupted(
                f"campaign {spec.name!r} interrupted after {computed} "
                f"computed points (all persisted; re-run to resume)")

    def on_requeue(lost: int) -> None:
        nonlocal requeued
        requeued += lost
        say(f"worker crash: re-queuing {lost} lost task(s) on a fresh pool")

    run_points([point.task for point in pending], cache=cache,
               jobs=workers, done=done, requeued=on_requeue)

    report = CampaignReport(
        campaign=spec.name, total_points=len(points),
        resumed_points=resumed, cache_hits=cache_hits,
        computed_points=computed, requeued_points=requeued,
        na_points=store.count_failures(spec.name),
        stale_tmps_removed=stale, jobs=workers,
        elapsed_s=time.perf_counter() - started)
    say(report.describe())
    return report


# ---------------------------------------------------------------------------
# Query side: rebuild sweep/figure artifacts from the store alone.
# ---------------------------------------------------------------------------

def sweep_from_store(store: ResultStore, spec: CampaignSpec,
                     app_name: str, n_nodes: int, parameter: str,
                     seed: Optional[int] = None) -> SweepResult:
    """One (app, P, dial) series, reconstructed purely from store rows.

    Point order follows the spec's value grid (baseline first), not
    completion or storage order, so the result is bit-identical to the
    :func:`~repro.harness.sweeps.run_sweep` shape regardless of how
    the campaign was scheduled, interrupted, or resumed.  Raises
    :class:`KeyError` when the store is missing points (campaign not
    finished) — query-side generation never silently drops data.
    """
    seed = seed if seed is not None else spec.seeds[0]
    values = spec.values_for(parameter)
    by_value: Dict[float, Any] = {}
    for stored in store.points(spec.name, app=app_name, n_nodes=n_nodes,
                               parameter=parameter, seed=seed):
        by_value[stored.value] = (stored.result, stored.failure)
    missing = [value for value in values if value not in by_value]
    if missing:
        # A run shared with another dial (the common baseline) is
        # stored once, under whichever dial reached it first: resolve
        # it through its run key before calling the point missing.
        series = replace(
            spec, apps=(app_name,), node_counts=(n_nodes,),
            dials=((parameter, values),), seeds=(seed,))
        for point in series.points():
            if point.value in missing:
                outcome = store.get(spec.name, point.key)
                if outcome is not None:
                    by_value[point.value] = outcome
        missing = [value for value in missing if value not in by_value]
    if missing:
        raise KeyError(
            f"campaign {spec.name!r} store is missing "
            f"{len(missing)}/{len(values)} points of "
            f"({app_name}, P={n_nodes}, {parameter}) at values "
            f"{missing}; run the campaign to completion first")
    dial, params = DIALS[parameter], MACHINE_PRESETS[spec.machine]
    sweep = SweepResult(app_name=app_name, n_nodes=n_nodes,
                        parameter=parameter)
    sweep.points = [
        SweepPoint(value=value, knobs=dial.knobs(value, params),
                   result=by_value[value][0],
                   failure=by_value[value][1])
        for value in values
    ]
    return sweep


@dataclass
class EnsembleSweep:
    """Seed-ensemble statistics for one (app, P, dial) series.

    The query-side aggregation over a campaign's ``seeds`` axis: one
    :func:`sweep_from_store` reconstruction per seed, collapsed to a
    per-value mean slowdown with a 95% confidence half-width (normal
    approximation, ``1.96 * s / sqrt(n)`` over the seeds whose run
    completed).  Values with zero completed seeds report ``None`` for
    both statistics, mirroring the single-seed N/A convention.
    """

    app_name: str
    n_nodes: int
    parameter: str
    seeds: Tuple[int, ...]
    values: List[float] = field(default_factory=list)
    #: seed -> per-value slowdowns (None where that seed's point is N/A).
    slowdowns_by_seed: Dict[int, List[Optional[float]]] = \
        field(default_factory=dict)

    def _samples(self, index: int) -> List[float]:
        return [per_seed[index]
                for per_seed in self.slowdowns_by_seed.values()
                if per_seed[index] is not None]

    def mean_slowdowns(self) -> List[Optional[float]]:
        """Per-value mean slowdown over completed seeds."""
        means = []
        for index in range(len(self.values)):
            samples = self._samples(index)
            means.append(statistics.fmean(samples) if samples else None)
        return means

    def ci_halfwidths(self) -> List[Optional[float]]:
        """Per-value 95% CI half-width (0.0 for a single seed)."""
        widths: List[Optional[float]] = []
        for index in range(len(self.values)):
            samples = self._samples(index)
            if not samples:
                widths.append(None)
            elif len(samples) == 1:
                widths.append(0.0)
            else:
                widths.append(1.96 * statistics.stdev(samples)
                              / math.sqrt(len(samples)))
        return widths

    def rows(self) -> List[dict]:
        """Flat per-value rows: mean, ci95, and seed counts."""
        rows = []
        means = self.mean_slowdowns()
        widths = self.ci_halfwidths()
        for index, value in enumerate(self.values):
            rows.append({
                "app": self.app_name,
                self.parameter: value,
                "mean_slowdown": (round(means[index], 4)
                                  if means[index] is not None else None),
                "ci95": (round(widths[index], 4)
                         if widths[index] is not None else None),
                "completed_seeds": len(self._samples(index)),
                "seeds": len(self.seeds),
            })
        return rows


def ensemble_from_store(store: ResultStore, spec: CampaignSpec,
                        app_name: str, n_nodes: int,
                        parameter: str) -> EnsembleSweep:
    """Mean/CI slowdown statistics over the campaign's ``seeds`` axis.

    Reconstructs one :func:`sweep_from_store` series per seed (so the
    same missing-point contract applies: an unfinished campaign raises
    :class:`KeyError`) and normalises each seed against *its own*
    baseline point before aggregating — slowdowns compare shape across
    seeds, not absolute runtimes.
    """
    values = list(spec.values_for(parameter))
    ensemble = EnsembleSweep(app_name=app_name, n_nodes=n_nodes,
                             parameter=parameter,
                             seeds=tuple(spec.seeds), values=values)
    for seed in spec.seeds:
        sweep = sweep_from_store(store, spec, app_name, n_nodes,
                                 parameter, seed=seed)
        base = sweep.baseline.runtime_us
        per_seed: List[Optional[float]] = []
        for point in sweep.points:
            if base is None or not point.completed:
                per_seed.append(None)
            else:
                per_seed.append(point.runtime_us / base)
        ensemble.slowdowns_by_seed[seed] = per_seed
    return ensemble


def figure_from_store(store: ResultStore, spec: CampaignSpec,
                      parameter: str, n_nodes: int,
                      seed: Optional[int] = None) -> SensitivityFigure:
    """All apps' sweeps for one (P, dial), from store rows alone."""
    figure = SensitivityFigure(
        title=f"campaign {spec.name} ({n_nodes} nodes): sensitivity "
              f"to {parameter}",
        x_label=DIALS[parameter].label)
    for app_name in spec.apps:
        figure.sweeps[app_name] = sweep_from_store(
            store, spec, app_name, n_nodes, parameter, seed=seed)
    return figure


def render_campaign(specs: Sequence[CampaignSpec],
                    store: ResultStore) -> str:
    """Markdown EXPERIMENTS artifacts for finished campaigns.

    Deterministic text only (no wall-clock, no store paths), so two
    stores holding the same results render byte-identically — the
    property the crash-resume CI drill diffs on.
    """
    out: List[str] = []
    w = out.append
    w("# CAMPAIGN ARTIFACTS — generated from the result store\n")
    for spec in specs:
        w(f"## Campaign `{spec.name}`\n")
        w(f"- apps: {', '.join(spec.apps)}")
        w(f"- node counts: {', '.join(str(p) for p in spec.node_counts)}")
        w(f"- machine: {spec.machine}; scale: {spec.scale:g}; "
          f"seeds: {', '.join(str(s) for s in spec.seeds)}\n")
        for n_nodes in spec.node_counts:
            for parameter, _values in spec.dials:
                figure = figure_from_store(store, spec, parameter,
                                           n_nodes)
                w(f"### {parameter} @ {n_nodes} nodes\n")
                w("```\n" + figure.render() + "\n```")
                w("| app | max slowdown | N/A points |")
                w("|---|---|---|")
                for app_name, sweep in figure.sweeps.items():
                    slowdown = figure.max_slowdown(app_name)
                    na = sum(1 for p in sweep.points if not p.completed)
                    w(f"| {app_name} | "
                      f"{'N/A' if slowdown is None else f'{slowdown:.2f}x'}"
                      f" | {na} |")
                w("")
                if len(spec.seeds) > 1:
                    w(f"Seed ensemble ({len(spec.seeds)} seeds, "
                      "mean slowdown ± 95% CI):\n")
                    w(f"| app | {parameter} | mean | ±95% CI | seeds |")
                    w("|---|---|---|---|---|")
                    for app_name in spec.apps:
                        ens = ensemble_from_store(store, spec, app_name,
                                                  n_nodes, parameter)
                        for row in ens.rows():
                            mean = row["mean_slowdown"]
                            ci = row["ci95"]
                            w(f"| {app_name} | {row[parameter]:g} | "
                              f"{'N/A' if mean is None else f'{mean:.2f}x'}"
                              f" | {'N/A' if ci is None else f'{ci:.3f}'} |"
                              f" {row['completed_seeds']}/{row['seeds']} |")
                    w("")
    return "\n".join(out) + "\n"
