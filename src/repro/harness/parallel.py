"""Parallel execution of sweep points and whole experiments.

Every point of Figures 5-8 (and every table artifact) is an independent
deterministic simulation, so the evaluation is embarrassingly parallel
at two granularities:

* **sweep points** — :func:`run_sweep_parallel` fans the (value, knobs)
  grid of one sweep across a ``ProcessPoolExecutor``.  Each worker runs
  the exact same :func:`execute_point` the serial path uses, so results
  are bit-identical to serial execution (same seed → same ``runtime_us``
  and ``events_processed``) and livelocked / over-budget points come
  back as the same ``N/A`` :class:`~repro.harness.sweeps.SweepPoint`.
* **experiments** — :func:`run_experiments_parallel` fans whole
  figure/table entry points of :mod:`repro.harness.experiments` across
  workers, for drivers like ``scripts/generate_experiments.py`` that
  regenerate many artifacts at once.

Both layers consult an optional :class:`~repro.harness.runcache.
RunCache` so previously computed points are never re-simulated; cache
probing happens in the parent, and only misses are shipped to workers.
Each computed point is cached the moment its future completes (not
after the whole batch), so an interrupted sweep — crash, Ctrl-C, or a
raising worker — keeps every point that finished; the rerun serves
them as hits and resimulates only the lost ones.  The campaign layer
(:mod:`repro.harness.campaign`) builds its resume contract on this.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.am.tuning import TuningKnobs
from repro.cluster.machine import Cluster
from repro.gas.runtime import LivelockError
from repro.harness.runcache import RunCache, run_key_spec
from repro.harness.sweeps import SweepPoint, SweepResult
from repro.network.faults import FaultError, FaultPlan
from repro.network.loggp import LogGPParams
from repro.sanitize.reports import DeadlockError

__all__ = ["execute_point", "run_sweep_points", "run_sweep_parallel",
           "run_experiments_parallel", "default_jobs", "PointTask"]


def default_jobs() -> int:
    """Worker count when unspecified: one per available core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _pool(jobs: int) -> ProcessPoolExecutor:
    """A process pool preferring fork (cheap, pytest-safe) over spawn."""
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=jobs, mp_context=context)


@dataclass(frozen=True)
class PointTask:
    """One sweep point's full configuration (picklable work unit)."""

    app: Any
    n_nodes: int
    value: float
    knobs: TuningKnobs
    params: LogGPParams
    seed: int = 0
    run_limit_us: Optional[float] = None
    livelock_limit: int = 200_000
    window: int = 8
    faults: Optional[FaultPlan] = None
    #: Collective tuning config (``repro.coll.tuner.CollConfig``), or
    #: None for the legacy fixed schedules.
    coll: Optional[Any] = None
    #: Run under simsan.  Never part of :meth:`key_spec` — sanitized
    #: points bypass the cache entirely instead of forking the key space
    #: (the run itself is bit-identical either way).
    sanitize: bool = False

    def key_spec(self) -> Dict[str, Any]:
        """The cache key-spec for this point."""
        return run_key_spec(
            self.app, self.n_nodes, self.params, self.knobs, self.seed,
            run_limit_us=self.run_limit_us,
            livelock_limit=self.livelock_limit, window=self.window,
            faults=self.faults, coll=self.coll)


def execute_point(task: PointTask) -> SweepPoint:
    """Run one sweep point to completion (or to its N/A failure).

    This is the single execution path shared by the serial sweep loop
    and the process-pool workers — which is what guarantees parallel
    results are bit-identical to serial ones.
    """
    cluster = Cluster(n_nodes=task.n_nodes, params=task.params,
                      knobs=task.knobs, seed=task.seed,
                      run_limit_us=task.run_limit_us,
                      livelock_limit=task.livelock_limit,
                      window=task.window, faults=task.faults,
                      sanitize=task.sanitize, coll=task.coll)
    point = SweepPoint(value=task.value, knobs=task.knobs)
    # Failure taxonomy: the prefix before ":" is the category that
    # SweepPoint.failure_category surfaces.  DeadlockError must be
    # caught before TimeoutError (it is a subclass).
    try:
        point.result = cluster.run(task.app)
    except DeadlockError as exc:
        point.failure = f"deadlock: {exc}"
    except LivelockError as exc:
        point.failure = f"livelock: {exc}"
    except TimeoutError as exc:
        point.failure = f"budget exceeded: {exc}"
    except FaultError as exc:
        point.failure = f"fault: {exc}"
    return point


def run_sweep_points(app: Any, n_nodes: int, parameter: str,
                     values: Sequence[float],
                     knob_for: Callable[[float], TuningKnobs],
                     params: Optional[LogGPParams] = None,
                     seed: int = 0,
                     run_limit_us: Optional[float] = None,
                     livelock_limit: int = 200_000,
                     window: int = 8,
                     jobs: Optional[int] = None,
                     cache: Optional[RunCache] = None,
                     fault_for: Optional[
                         Callable[[float], Optional[FaultPlan]]] = None,
                     sanitize: bool = False,
                     coll: Optional[Any] = None,
                     app_for: Optional[
                         Callable[[float], Any]] = None) -> SweepResult:
    """The sweep engine behind :func:`repro.harness.sweeps.run_sweep`.

    ``jobs=None`` or ``jobs<=1`` runs points serially in-process;
    ``jobs>1`` fans cache misses across a process pool.  Point order in
    the returned :class:`SweepResult` always matches ``values``.

    ``fault_for`` maps each dialed value to the
    :class:`~repro.network.faults.FaultPlan` for that point (or None
    for a perfectly reliable fabric), so fault sweeps reuse this exact
    engine — including the cache and process pool.

    ``sanitize=True`` runs every point under simsan and bypasses the
    cache in both directions (no gets, no puts): cached entries carry no
    sanitizer report, and sanitized results must not shadow clean ones.

    ``coll`` applies one collective tuning config
    (:class:`~repro.coll.tuner.CollConfig`) to every point; it is part
    of the cache key unless it is the default fixed config.

    ``app_for`` maps each dialed value to the application instance for
    that point, for sweeps whose axis is an *application* knob rather
    than a machine dial — e.g. the serving tier's offered-load axis.
    The per-point app participates in the cache key via its
    fingerprint, so such sweeps cache exactly like dial sweeps.
    """
    params = params if params is not None else LogGPParams.berkeley_now()
    if sanitize:
        cache = None
    tasks = [
        PointTask(app=app_for(value) if app_for is not None else app,
                  n_nodes=n_nodes, value=value,
                  knobs=knob_for(value), params=params, seed=seed,
                  run_limit_us=run_limit_us,
                  livelock_limit=livelock_limit, window=window,
                  faults=fault_for(value) if fault_for is not None else None,
                  sanitize=sanitize, coll=coll)
        for value in values
    ]
    points: List[Optional[SweepPoint]] = [None] * len(tasks)

    pending: List[int] = []
    for index, task in enumerate(tasks):
        if cache is not None:
            outcome = cache.get(task.key_spec())
            if outcome is not None:
                result, failure = outcome
                points[index] = SweepPoint(value=task.value,
                                           knobs=task.knobs,
                                           result=result, failure=failure)
                continue
        pending.append(index)

    def finish(index: int, point: SweepPoint) -> None:
        """Record one computed point and persist it *immediately*.

        Caching per point (not after the whole batch, as this engine
        once did) is what makes an interrupted sweep resumable: a
        crash, Ctrl-C, or one raising worker no longer discards every
        point that had already finished — the rerun serves them as
        cache hits and only simulates the genuinely lost ones.
        """
        points[index] = point
        if cache is not None:
            cache.put(tasks[index].key_spec(),
                      result=point.result, failure=point.failure)

    workers = jobs if jobs is not None else 1
    if pending and workers > 1:
        with _pool(min(workers, len(pending))) as pool:
            futures = {pool.submit(execute_point, tasks[index]): index
                       for index in pending}
            # as_completed (not pool.map) so every finished point is
            # cached even when a later future fails: a worker killed
            # mid-task breaks the whole pool, and an exception that
            # escapes execute_point's failure taxonomy aborts the
            # sweep — either way the completed points must survive.
            error: Optional[BaseException] = None
            for future in as_completed(futures):
                try:
                    point = future.result()
                # Deferred, not swallowed: the first failure is re-raised
                # after the drain, once every completed point is cached.
                except BaseException as exc:  # simlint: disable=broad-except
                    if error is None:
                        error = exc
                    continue
                finish(futures[future], point)
            if error is not None:
                raise error
    else:
        for index in pending:
            finish(index, execute_point(tasks[index]))

    sweep = SweepResult(app_name=app.name, n_nodes=n_nodes,
                        parameter=parameter)
    sweep.points = points
    return sweep


def run_sweep_parallel(app: Any, n_nodes: int, parameter: str,
                       values: Sequence[float],
                       knob_for: Callable[[float], TuningKnobs],
                       jobs: Optional[int] = None,
                       **kwargs) -> SweepResult:
    """:func:`run_sweep_points` with a pool sized to the machine.

    Accepts every keyword :func:`repro.harness.sweeps.run_sweep` does,
    plus ``cache``; ``jobs`` defaults to one worker per core.
    """
    if jobs is None:
        jobs = default_jobs()
    return run_sweep_points(app, n_nodes, parameter, values, knob_for,
                            jobs=jobs, **kwargs)


# ---------------------------------------------------------------------------
# Experiment-level fan-out.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ExperimentTask:
    """One ``repro.harness.experiments`` entry point invocation."""

    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


def _run_experiment(task: _ExperimentTask) -> Any:
    from repro.harness import experiments
    return getattr(experiments, task.name)(**task.kwargs)


def run_experiments_parallel(requests: Sequence[Tuple[str, Dict[str, Any]]],
                             jobs: Optional[int] = None) -> List[Any]:
    """Run many experiment entry points, fanned across worker processes.

    ``requests`` is a sequence of ``(name, kwargs)`` pairs where ``name``
    is an attribute of :mod:`repro.harness.experiments` (e.g.
    ``"figure5_overhead"``).  Results come back in request order, each
    exactly what the named entry point returns.  With ``jobs<=1`` the
    requests run serially in-process (identical results, no pool).
    """
    tasks = []
    for name, kwargs in requests:
        from repro.harness import experiments
        if not hasattr(experiments, name):
            raise KeyError(f"unknown experiment {name!r}")
        tasks.append(_ExperimentTask(name=name, kwargs=dict(kwargs)))
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_experiment(task) for task in tasks]
    with _pool(min(jobs, len(tasks))) as pool:
        return list(pool.map(_run_experiment, tasks))
