"""The one drain: every simulation the harness launches runs here.

Every point of every table and figure is an independent deterministic
simulation, so a study is a list of :class:`PointTask` s — an
application and the :class:`~repro.cluster.machine.Cluster` to run it
on — and :func:`run_points` is the only code in ``repro`` that probes
a :class:`~repro.harness.runcache.RunCache`, owns a process pool, or
calls :func:`execute_point`.  Sweeps, campaigns, the serving and
collective studies and the table artifacts are all its callers, so the
cache, the pool, per-point persistence and the crash policy (its
docstring) are written once and hold for every study alike.

What to run is kept apart from running it: a study is a :class:`Plan`
(its tasks plus a pure ``build(points)``), :func:`run_plans` drains the
union of any number of plans in one :func:`run_points` call, and
:func:`study` makes the eager entry point out of a plan definition.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import pathlib
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import cached_property, wraps
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.am.tuning import TuningKnobs
from repro.cluster.machine import Cluster, RunResult
from repro.gas.runtime import LivelockError
from repro.harness.runcache import RunCache, run_key_spec
from repro.harness.suite import checked_scale
from repro.network.faults import FaultError
from repro.sanitize.reports import DeadlockError

__all__ = ["PointTask", "SweepPoint", "FAILURE_CATEGORIES", "execute_point",
           "run_points", "Plan", "run_plans", "study", "default_jobs",
           "add_run_options", "run_options", "input_scale", "at_least",
           "finite_positive"]


def default_jobs() -> int:
    """Worker count when unspecified: one per available core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """The drain's three flags, as every driver takes them:
    ``--jobs``, ``--no-cache`` and ``--cache-dir``."""
    parser.add_argument("--jobs", type=at_least(1), default=None,
                        help="worker processes for the simulations "
                        "(default: one per core)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk run cache")
    parser.add_argument("--cache-dir", default=None,
                        help="run cache directory (default "
                        "~/.cache/repro or $REPRO_CACHE_DIR)")


def input_scale(text: str) -> float:
    """The argparse type of every driver's ``--scale``: a bad one exits
    2 at parse time with :func:`~repro.harness.suite.checked_scale`'s
    reason, before anything runs."""
    try:
        return checked_scale(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def output_path(text: str) -> pathlib.Path:
    """The argparse type of a file a driver writes (``--out``,
    ``--render``, ``--bench-out``): one in a directory that does not
    exist exits 2 at parse time, not with a traceback and exit 1 (a
    failing claim's code) after the run."""
    path = pathlib.Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"no such directory: {path.parent}")
    return path


def at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an integer flag with a floor (``--jobs``,
    ``--nodes``, ``--window``, ``--livelock-limit``): a value below it
    exits 2 at parse time, rather than failing mid-run with a driver's
    failure code or, for ``--jobs``, running serially."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value
    return parse


def finite_positive(text: str) -> float:
    """The argparse type of a time budget (``--run-limit-us``): finite
    and > 0, as :class:`~repro.cluster.machine.Cluster` requires."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number > 0")
    return value


def run_options(args: argparse.Namespace) -> Dict[str, Any]:
    """:func:`add_run_options`' flags as the ``cache=`` / ``jobs=``
    keywords of :func:`run_plans`."""
    return {"cache": None if args.no_cache else RunCache(args.cache_dir),
            "jobs": default_jobs() if args.jobs is None else args.jobs}


def _pool(jobs: int) -> ProcessPoolExecutor:
    """A process pool preferring fork (cheap, pytest-safe) over spawn."""
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


@dataclass(frozen=True)
class PointTask:
    """One run, ``app`` on ``cluster`` — the picklable work unit.
    ``value`` is the label the point carries in its sweep (the dialed
    parameter's absolute value); ``record`` asks for the run's simcost
    dependency graph too (observation-only, so never part of the key)."""

    app: Any
    cluster: Cluster
    value: float = 0.0
    record: bool = False

    @cached_property
    def spec(self) -> Dict[str, Any]:
        """The canonical key-spec (:func:`run_key_spec`)."""
        return run_key_spec(self.app, self.cluster)

    @cached_property
    def key(self) -> str:
        """SHA-256 of :attr:`spec` — the identity the run cache and the
        result store share."""
        return RunCache.key_for(self.spec)


#: The failure categories :func:`execute_point`
#: can produce, i.e. the prefixes of ``SweepPoint.failure``.
FAILURE_CATEGORIES = frozenset(
    {"deadlock", "livelock", "budget exceeded", "fault"})


@dataclass
class SweepPoint:
    """One configuration of a sweep."""

    #: The dialed parameter's absolute value (µs, or MB/s for bulk).
    value: float
    knobs: TuningKnobs
    #: None when the run did not complete (deadlock / livelock / budget
    #: / fault).
    result: Optional[RunResult] = None
    failure: Optional[str] = None
    #: The run's :class:`~repro.cost.graph.CostGraph` when its task
    #: asked for one and it completed.
    graph: Optional["CostGraph"] = None  # noqa: F821

    @property
    def completed(self) -> bool:
        return self.result is not None

    @property
    def runtime_us(self) -> Optional[float]:
        return self.result.runtime_us if self.result else None

    @property
    def failure_category(self) -> Optional[str]:
        """The taxonomy bucket of :attr:`failure`.

        One of :data:`FAILURE_CATEGORIES` (``deadlock`` / ``livelock``
        / ``budget exceeded`` / ``fault``), ``"error"`` for an
        unrecognised failure string, or ``None`` when the point
        completed.
        """
        if self.failure is None:
            return None
        head = self.failure.split(":", 1)[0].strip()
        return head if head in FAILURE_CATEGORIES else "error"


def execute_point(task: PointTask) -> SweepPoint:
    """Run one point to completion (or to its N/A failure).

    The single execution path under the serial loop and the pool
    workers — which is what guarantees parallel results are
    bit-identical to serial ones.
    """
    point = SweepPoint(value=task.value, knobs=task.cluster.knobs)
    recorder = None
    if task.record:
        from repro.cost.recorder import DepRecorder
        recorder = DepRecorder()
    # Failure taxonomy: the prefix before ":" is the category that
    # SweepPoint.failure_category surfaces.  DeadlockError must be
    # caught before TimeoutError (it is a subclass).
    try:
        point.result = task.cluster.run(task.app, recorder=recorder)
        if recorder is not None:
            point.graph = recorder.graph
    except DeadlockError as exc:
        point.failure = f"deadlock: {exc}"
    except LivelockError as exc:
        point.failure = f"livelock: {exc}"
    except TimeoutError as exc:
        point.failure = f"budget exceeded: {exc}"
    except FaultError as exc:
        point.failure = f"fault: {exc}"
    return point


def run_points(tasks: Sequence[PointTask],
               cache: Optional[RunCache] = None,
               jobs: Optional[int] = None,
               done: Optional[
                   Callable[[int, SweepPoint, bool], None]] = None,
               max_requeues: int = 8,
               requeued: Optional[Callable[[int], None]] = None
               ) -> List[SweepPoint]:
    """Drain ``tasks``; the returned points are in task order.

    Each task is probed against ``cache`` in the parent; the misses run
    serially in-process (``jobs=None`` or ``jobs<=1``) or across a
    process pool.  A computed point is cached the moment it lands, and
    every point — hit or computed — is then handed to
    ``done(index, point, from_cache)``, the caller's own persistence
    (the campaign's store row).  An exception from ``done`` propagates
    at once; everything that landed before it is already durable.  A
    task whose cluster has ``sanitize=True`` bypasses the cache both
    ways: cached entries carry no sanitizer report, and sanitized
    results must not shadow clean ones.  A ``record`` task's graph is
    cached under the same key, and a cached run without one is a miss
    for it.

    Crash policy.  A killed worker (``BrokenProcessPool``) loses only
    the tasks whose futures never completed: they are re-queued on a
    fresh pool (``requeued(n)`` reports each round), at most
    ``max_requeues`` times before the error is raised.  Any other
    worker exception is deferred, not swallowed: the first one is
    re-raised once every completed future is persisted.
    """
    points: List[Optional[SweepPoint]] = [None] * len(tasks)
    cached = [cache is not None and not task.cluster.sanitize
              for task in tasks]

    def land(index: int, point: SweepPoint, from_cache: bool) -> None:
        points[index] = point
        if cached[index] and not from_cache:
            cache.put(tasks[index].spec, result=point.result,
                      failure=point.failure)
            if point.graph is not None:
                cache.put_graph(tasks[index].spec, point.graph)
        if done is not None:
            done(index, point, from_cache)

    remaining: List[int] = []
    for index, task in enumerate(tasks):
        outcome = cache.get(task.spec, graph=task.record) \
            if cached[index] else None
        if outcome is None:
            remaining.append(index)
            continue
        land(index, SweepPoint(task.value, task.cluster.knobs, *outcome),
             True)

    if jobs is None or jobs <= 1:
        for index in remaining:
            land(index, execute_point(tasks[index]), False)
        return points

    rounds = 0
    while remaining:
        crashed: List[int] = []
        error: Optional[BaseException] = None
        with _pool(min(jobs, len(remaining))) as pool:
            futures = {pool.submit(execute_point, tasks[index]): index
                       for index in remaining}
            # as_completed (not pool.map) so every finished point is
            # persisted even when a later future fails.
            for future in as_completed(futures):
                try:
                    point = future.result()
                except BrokenProcessPool:
                    # Lost with the dead worker, or never started.
                    crashed.append(futures[future])
                    continue
                except BaseException as exc:  # simlint: disable=broad-except
                    if error is None:
                        error = exc
                    continue
                land(futures[future], point, False)
        if error is not None:
            raise error
        if crashed:
            rounds += 1
            if rounds > max_requeues:
                raise BrokenProcessPool(
                    f"workers kept crashing after {max_requeues} "
                    f"re-queue rounds; {len(crashed)} point(s) "
                    "unfinished (all completed points are persisted)")
            if requeued is not None:
                requeued(len(crashed))
        remaining = crashed
    return points


@dataclass(frozen=True)
class Plan:
    """What a study runs and what it makes of the runs: ``build`` is
    pure, receives the study's own points in the order of ``tasks`` and
    returns the study's result.  Nothing here simulates."""

    tasks: Sequence[PointTask]
    build: Callable[[List[SweepPoint]], Any]

    def then(self, finish: Callable[[Any], Any]) -> "Plan":
        """The same runs, with ``finish`` applied to what they build."""
        return Plan(self.tasks, lambda points: finish(self.build(points)))

    @classmethod
    def of_results(cls, tasks: Sequence[PointTask]) -> "Plan":
        """A study that needs every run to complete: builds the list of
        :class:`RunResult` s, and a failed point raises ``RuntimeError``
        carrying its taxonomy string (``budget exceeded: ...``) instead
        of coming back as ``N/A``."""
        def results(points: List[SweepPoint]) -> List[RunResult]:
            for task, point in zip(tasks, points):
                if not point.completed:
                    raise RuntimeError(
                        f"{task.app.name} on {task.cluster.n_nodes} nodes "
                        f"did not complete — {point.failure}")
            return [point.result for point in points]
        return cls(tasks, results)

    @classmethod
    def union(cls, plans: Sequence["Plan"]) -> "Plan":
        """A study made of sub-studies: their tasks side by side, built
        into the list of what each of them builds."""
        def parts(points: List[SweepPoint]) -> List[Any]:
            built, start = [], 0
            for plan in plans:
                stop = start + len(plan.tasks)
                built.append(plan.build(points[start:stop]))
                start = stop
            return built
        return cls([task for plan in plans for task in plan.tasks], parts)


def run_plans(plans: Sequence[Plan], cache: Optional[RunCache] = None,
              jobs: Optional[int] = None) -> List[Any]:
    """Drain the union of ``plans`` once; what each plan built, in order.

    Tables and figures share runs (Table 3's baselines are every sweep's
    first point), so tasks are de-duplicated by ``(key, sanitize)`` and
    one :func:`run_points` call simulates each distinct run once, at any
    ``jobs``, cache or no cache; a run any of its tasks ``record`` s is
    recorded (simcost's baseline recording is Figure 5's first point).
    Every task gets its own point back, a shared run re-labelled with
    that task's ``value`` and knobs.

    Several plans at once are a driver holding every point until it
    renders: their results carry ``output=None``, as cache-restored ones
    do.
    """
    whole = Plan.union(plans)
    idents = [(task.key, task.cluster.sanitize) for task in whole.tasks]
    unique: Dict[Tuple[str, bool], PointTask] = {}
    for ident, task in zip(idents, whole.tasks):
        first = unique.setdefault(ident, task)
        if task.record and not first.record:
            unique[ident] = replace(first, record=True)

    def forget_output(_index: int, point: SweepPoint, _hit: bool) -> None:
        if point.completed:
            point.result.output = None
    points = dict(zip(unique, run_points(
        list(unique.values()), cache=cache, jobs=jobs,
        done=forget_output if len(plans) > 1 else None)))
    return whole.build([
        replace(points[ident], value=task.value, knobs=task.cluster.knobs)
        for ident, task in zip(idents, whole.tasks)])


def study(plan: Callable[..., Plan]) -> Callable[..., Any]:
    """The eager entry point of a study, from its one definition.

    ``plan(...)`` returns the study's :class:`Plan`; the decorated name
    takes the same arguments plus ``cache=`` / ``jobs=`` and plans,
    drains and builds that one plan.  The definition stays reachable as
    ``.plan``, for :func:`run_plans` and :meth:`Plan.union`.
    """
    @wraps(plan)
    def eager(*args: Any, cache: Optional[RunCache] = None,
              jobs: Optional[int] = None, **kwargs: Any) -> Any:
        return run_plans([plan(*args, **kwargs)], cache=cache, jobs=jobs)[0]
    eager.plan = plan
    return eager
