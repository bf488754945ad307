"""The cluster: nodes + wire + AM layers, and the run orchestrator.

A :class:`Cluster` captures a machine configuration (node count, baseline
LogGP parameters, tuning dials, flow-control window, CPU cost model).
:meth:`Cluster.machine` wires its nodes onto a simulator; each
:meth:`Cluster.run` builds a fresh simulator and the machine on it,
executes one application to completion, and returns a :class:`RunResult`
with the measured runtime and full communication statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, List, Optional

from repro.am.layer import AmLayer, DEFAULT_WINDOW, HandlerTable
from repro.am.tuning import TuningKnobs
from repro.cluster.node import CostModel, Node
from repro.gas.runtime import (DEFAULT_LIVELOCK_LIMIT, LivelockError, Proc,
                               register_gas_handlers)
from repro.instruments.balance import balance_matrix, render_balance
from repro.instruments.probes import Probes
from repro.instruments.stats import ClusterStats
from repro.instruments.summary import CommunicationSummary, summarize
from repro.network.loggp import LogGPParams
from repro.network.wire import Wire
from repro.sim import Simulator, StalledError

__all__ = ["Cluster", "RunResult"]


@dataclass
class RunResult:
    """Outcome of one application run on one machine configuration."""

    app_name: str
    n_nodes: int
    params: LogGPParams
    knobs: TuningKnobs
    #: Measured runtime of the timed region, simulated microseconds.
    runtime_us: float
    stats: ClusterStats
    #: Whatever the application's ``finalize`` returned.
    output: Any = None
    #: Diagnostic: total simulator events processed for this run.
    events_processed: int = 0
    #: :class:`~repro.sanitize.reports.SanitizerReport` when the run was
    #: sanitized, else ``None``.  Deliberately absent from
    #: :meth:`to_dict`: sanitized runs never enter the run cache.
    sanitizer: Any = None

    @property
    def runtime_s(self) -> float:
        """Runtime in simulated seconds."""
        return self.runtime_us / 1e6

    def summary(self) -> CommunicationSummary:
        """The Table 4 row for this run."""
        return summarize(self.app_name, self.stats)

    def balance(self):
        """The Figure 4 matrix for this run (normalised message counts)."""
        return balance_matrix(self.stats)

    def render_balance(self) -> str:
        """ASCII rendering of the Figure 4 matrix."""
        return render_balance(self.stats, title=self.app_name)

    def slowdown_vs(self, baseline: "RunResult") -> float:
        """This run's slowdown relative to a baseline run."""
        if baseline.runtime_us <= 0:
            raise ValueError("baseline runtime is not positive")
        return self.runtime_us / baseline.runtime_us

    # -- serialisation (the on-disk run cache) -------------------------------
    def to_dict(self) -> dict:
        """JSON-safe dict of everything except ``output``.

        ``output`` is whatever the application's ``finalize`` returned
        (often large numpy arrays used only for correctness checks), so
        the cache drops it; a cache-restored result has ``output=None``.
        """
        import dataclasses
        return {
            "app_name": self.app_name,
            "n_nodes": self.n_nodes,
            "params": dataclasses.asdict(self.params),
            "knobs": dataclasses.asdict(self.knobs),
            "runtime_us": self.runtime_us,
            "stats": self.stats.to_dict(),
            "events_processed": self.events_processed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a result produced by :meth:`to_dict` (no ``output``)."""
        return cls(
            app_name=data["app_name"],
            n_nodes=data["n_nodes"],
            params=LogGPParams(**data["params"]),
            knobs=TuningKnobs(**data["knobs"]),
            runtime_us=data["runtime_us"],
            stats=ClusterStats.from_dict(data["stats"]),
            output=None,
            events_processed=data["events_processed"],
        )


@dataclass(frozen=True)
class Cluster:
    """A simulated cluster with dialable communication performance.

    Its fields are the one description of a run's machine: every field
    but ``sanitize`` is part of the run key
    (:func:`repro.harness.runcache.run_key_spec`), so a field added here
    joins the key with no harness edit, and re-keys every stored run.

    Fields
    ------
    n_nodes:
        Number of workstations (the paper uses 16 and 32).
    params:
        Baseline LogGP parameters; default Berkeley NOW (Table 1).
    knobs:
        The apparatus dials; default all-zero (unmodified machine).
    window:
        Fixed flow-control window of outstanding messages per node; an
        ``int`` >= 1.
    window_scope:
        ``"per-destination"`` (GAM's) or ``"global"``.
    cost:
        Host CPU cost model; default approximates the UltraSPARC 170.
    disks_per_node:
        Spindles per node (NOW-sort uses two).
    seed:
        Master seed for deterministic workload generation.
    run_limit_us:
        Optional hard cap on simulated time per run, finite and > 0;
        exceeding it raises ``TimeoutError`` (used to bound livelocked
        configurations).
    livelock_limit:
        Per-rank failed-lock budget before ``LivelockError``; an
        ``int`` >= 0.
    faults:
        Optional :class:`~repro.network.faults.FaultPlan` making the
        wire imperfect (drops, delay spikes, slowdown windows).  A null
        plan is normalised to ``None``, so the reliability machinery is
        provably absent on the perfectly reliable fabric and such runs
        stay bit-identical to, and keyed as, runs that never mention
        faults.
    sanitize:
        Run under the simsan happens-before sanitizer (see
        ARCHITECTURE.md section 11): races land on
        ``RunResult.sanitizer``, deadlocks raise
        :class:`~repro.sanitize.reports.DeadlockError`.  The sanitizer
        adds zero *simulated* cost, so runtime/event counts stay
        bit-identical; sanitized runs are excluded from the run cache.
    """

    n_nodes: int
    params: Optional[LogGPParams] = None
    knobs: Optional[TuningKnobs] = None
    window: int = DEFAULT_WINDOW
    window_scope: str = "per-destination"
    cost: Optional[CostModel] = None
    disks_per_node: int = 2
    seed: int = 0
    run_limit_us: Optional[float] = None
    livelock_limit: int = DEFAULT_LIVELOCK_LIMIT
    faults: Optional["FaultPlan"] = None  # noqa: F821
    sanitize: bool = False

    def __post_init__(self) -> None:
        # Each bound is refused by name before anything runs: a
        # fractional window runs as the next integer under a key of its
        # own, a NaN time limit fails mid-drain, and the failed-lock
        # guard's ``>`` is never true for NaN.
        for name, low in (("n_nodes", 1), ("window", 1),
                          ("livelock_limit", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(
                    f"{name} must be an int >= {low}, got {value!r}")
        limit = self.run_limit_us
        if limit is not None and not (math.isfinite(limit) and limit > 0):
            raise ValueError(f"run_limit_us must be None or finite and "
                             f"> 0, got {limit!r}")
        for name, default in (("params", LogGPParams.berkeley_now),
                              ("knobs", TuningKnobs), ("cost", CostModel)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default())
        if self.faults is not None and self.faults.is_null:
            object.__setattr__(self, "faults", None)

    def with_knobs(self, knobs: TuningKnobs) -> "Cluster":
        """A cluster identical to this one but with different dials."""
        return replace(self, knobs=knobs)

    # -- building and running -------------------------------------------------
    def machine(self, sim: Simulator, handlers: HandlerTable,
                probes: Optional[Probes] = None,
                stats: Optional[ClusterStats] = None) -> List[Proc]:
        """This configuration's hardware on ``sim``, one rank per node.

        The one place a wire and the AM layers are built: the fault
        injector (under a fault plan), the ``Wire``, and each node's
        ``Node``, ``AmLayer`` and ``Proc``, every layer answering to
        ``handlers`` and firing ``probes``.  Nothing is scheduled:
        :meth:`run` drives the ranks through an application, and the
        calibration microbenchmarks drive loops of their own.
        """
        injector = None
        if self.faults is not None:
            from repro.network.faults import FaultInjector
            injector = FaultInjector(self.faults, self.seed)
        wire = Wire(sim, self.params.latency, injector=injector,
                    probes=probes)
        procs: List[Proc] = []
        for node_id in range(self.n_nodes):
            node = Node(sim, node_id, self.cost,
                        n_disks=self.disks_per_node)
            am = AmLayer(sim, node_id, self.params, self.knobs, wire,
                         handlers, window=self.window,
                         window_scope=self.window_scope,
                         faults=self.faults, probes=probes)
            proc = Proc(sim, node_id, self.n_nodes, node, am, stats=stats,
                        seed=self.seed,
                        livelock_limit=self.livelock_limit)
            am.host = proc
            procs.append(proc)
        return procs

    def run(self, app: "Application",
            tracer: Optional["MessageTracer"] = None,  # noqa: F821
            recorder: Optional["DepRecorder"] = None  # noqa: F821
            ) -> RunResult:
        """Execute ``app`` once on this configuration.

        Passing a :class:`~repro.instruments.trace.MessageTracer`
        records every message's send/inject/deliver/handle timeline.
        Passing a :class:`~repro.cost.recorder.DepRecorder` captures
        the run's communication dependency DAG for simcost — strictly
        observation-only, so the run stays bit-identical (and, like
        ``tracer`` and ``sanitize``, the recorder is never part of the
        run-cache key space).  No code below this method tells the
        observers apart: all subscribe to the run's one ``Probes``.
        """
        if recorder is not None:
            # The replay model (repro.cost.predict) covers exactly the
            # reliable wire with an undialed receive context;
            # refuse regimes whose scheduling it cannot reproduce.
            if getattr(app, "open_system", False):
                from repro.cost.predict import UnsupportedGraphError
                raise UnsupportedGraphError(
                    f"simcost cannot record open-system app "
                    f"{app.name!r}: arrivals from outside the rank set "
                    f"have no closed dependency graph to replay")
            if self.faults is not None:
                raise ValueError(
                    "simcost recording requires a reliable fabric "
                    "(no fault plan)")
            if self.knobs.delta_occ > 0:
                raise ValueError(
                    "simcost recording does not support dialed "
                    "occupancy (delta_occ > 0)")
        sim = Simulator()
        stats = ClusterStats(self.n_nodes)
        sanitizer = None
        if self.sanitize:
            from repro.sanitize.monitor import Sanitizer
            sanitizer = Sanitizer(self.n_nodes, sim)
        probes = Probes(observer for observer in
                        (stats, sanitizer, tracer, recorder)
                        if observer is not None)
        table = HandlerTable()
        register_gas_handlers(table)
        app.configure(self.n_nodes, self.seed)
        app.register_handlers(table)
        probes.begin(sim, self, app.name)
        procs = self.machine(sim, table, probes=probes, stats=stats)

        drivers = [
            sim.process(self._drive(app, proc), name=f"rank{proc.rank}")
            for proc in procs
        ]
        done = sim.all_of(drivers)
        try:
            sim.run(until=self.run_limit_us, stop_event=done)
        except StalledError as exc:
            # The heap drained with ranks still blocked: a true deadlock.
            # Diagnose it from the wait-for graph (rich annotations when
            # the sanitizer is on; the raw blocked events otherwise).
            from repro.sanitize.deadlock import diagnose_stall
            from repro.sanitize.reports import DeadlockError
            raise DeadlockError(
                diagnose_stall(sanitizer, drivers, sim.now)) from exc
        except LivelockError as exc:
            if sanitizer is not None:
                from repro.sanitize.deadlock import lock_cycle
                from repro.sanitize.reports import DeadlockError
                report = lock_cycle(sanitizer)
                if report is not None:
                    # The livelock is really a lock-ordering deadlock:
                    # the spinning ranks wait on each other in a cycle.
                    raise DeadlockError(report) from exc
            raise

        for proc in procs:
            leaked = proc.am.nic.reassembly_teardown()
            stats.record_reassembly_leaks(proc.rank, leaked)
        probes.finish()
        try:
            output = app.finalize(procs)
        except AssertionError as exc:
            # A failed answer check is a finding too: the races that may
            # explain it leave with it, not with the discarded run.
            if sanitizer is not None:
                exc.sanitizer = sanitizer.report()
            raise
        return RunResult(
            app_name=app.name,
            n_nodes=self.n_nodes,
            params=self.params,
            knobs=self.knobs,
            runtime_us=stats.runtime_us,
            stats=stats,
            output=output,
            events_processed=sim.events_processed,
            sanitizer=sanitizer.report() if sanitizer is not None else None,
        )

    def _drive(self, app: "Application", proc: Proc):  # noqa: F821
        """Per-rank driver: untimed setup, timed region, teardown.  Rank
        0 marks the region's two ends (``run`` always has a listener:
        the run's ``ClusterStats`` times it)."""
        yield from app.setup_rank(proc)
        yield from proc.barrier()
        if proc.rank == 0:
            proc.probes.mark(proc.rank, "start")
        yield from app.run_rank(proc)
        yield from proc.sync()
        yield from proc.am.drain()
        yield from proc.barrier()
        if proc.rank == 0:
            proc.probes.mark(proc.rank, "stop")

    def describe(self) -> str:
        """One-line summary of the configuration."""
        text = (f"Cluster(P={self.n_nodes}, {self.params.describe()}, "
                f"{self.knobs.describe()}, window={self.window}")
        if self.faults is not None:
            text += f", {self.faults.describe()}"
        return text + ")"
