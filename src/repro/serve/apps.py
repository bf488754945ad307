"""Sharded request-serving applications over the AM layer.

Two service apps turn the cluster into an open system:

* :class:`KVServe` -- a sharded key-value store: each key hashes to
  one shard, and every read or write is served there.
* :class:`FanoutServe` -- a scatter-gather RPC service: each request
  fans out to ``fanout`` distinct shards and completes when the last
  reply lands, the classic tail-latency amplifier.

Both run as ordinary :class:`~repro.apps.base.Application`\\ s, so they
inherit the whole substrate unchanged: the NIC pipeline and o/g/L/G
dials, per-destination flow-control credits (the backpressure under
overload), fault injection + ARQ, simsan, and the tuned collectives.

Execution model (see ARCHITECTURE.md section 16): the client tier is
one extra simulator process *outside the rank set* — it walks the
seeded arrival trace, charges no host time, and appends each request
to the frontend ranks' queues in round-robin order.  Every rank runs
the same SPMD loop: dispatch pending client requests split-phase (so
one frontend keeps many requests in flight) and service incoming shard
requests.  Requests complete on the frontend
when the last sub-reply arrives; latency is measured from *arrival*,
so client-side queueing counts, as it must in an open system.

Saturation is a structured outcome, not a livelock: when the global
backlog (injected − completed − dropped) exceeds ``max_backlog`` the
client tier stops injecting, frontends drop their queued remainder,
and the run completes normally with ``metrics.verdict == "saturated"``.

Determinism: the trace derives from the run seed and every other
choice is a fixed rotation, so serving runs are bit-identical
rerun-to-rerun and cache/campaign machinery applies by construction.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Dict, Generator, List

from repro.am.layer import HandlerReply, Reply
from repro.apps.base import Application
from repro.serve import clients
from repro.serve.clients import ClientTier, Request
from repro.serve.metrics import ServingMetrics

__all__ = ["ServingApp", "KVServe", "FanoutServe", "SERVING_APPS",
           "serving_app_from_dict"]

#: Simulated µs between two samples of every node's queue depth.
SAMPLE_EVERY_US = 100.0


# ---------------------------------------------------------------------------
# Service handlers (module level; each returns its reply, GAM-style).
# ---------------------------------------------------------------------------

def _kv_apply(store: Dict[int, int], key: int, write: bool) -> int:
    """The key-value shard operation itself (shared local/remote)."""
    if write:
        store[key] = store.get(key, 0) + 1
    return store.get(key, 0)


def _fanout_apply(hits: List[int], key: int) -> int:
    """The scatter-gather shard sub-query (shared local/remote)."""
    hits[key % len(hits)] += 1
    return hits[key % len(hits)]


def _serve_kv(am, packet) -> HandlerReply:
    """One key-value operation at its shard."""
    app = am.host.state["serve_app"]
    key, write = packet.payload
    value = _kv_apply(am.host.state["serve_store"], key, write)
    metrics = app._metrics
    metrics.on_served(am.node_id, app.service_us)
    metrics.on_queue_sample(am.node_id, am.rx_pending)
    return Reply(value, service_us=app.service_us)


def _serve_fanout(am, packet) -> HandlerReply:
    """One scatter-gather sub-query at a shard."""
    app = am.host.state["serve_app"]
    value = _fanout_apply(am.host.state["serve_hits"], packet.payload)
    metrics = app._metrics
    metrics.on_served(am.node_id, app.service_us)
    metrics.on_queue_sample(am.node_id, am.rx_pending)
    return Reply(value, service_us=app.service_us)


# ---------------------------------------------------------------------------
# The scenario family.
# ---------------------------------------------------------------------------

class ServingApp(Application):
    """Shared machinery of the open-system serving scenarios.

    Subclasses provide the per-request dispatch (:meth:`_issue`), their
    handlers, and per-rank shard state; this base owns the client
    tier, the round-robin frontend assignment, the frontend loop, the
    saturation guard, the queue sampler, and the :class:`ServingMetrics`
    instruments.

    Constructor arguments are all stored as same-named attributes —
    the convention :func:`~repro.harness.runcache.app_fingerprint`
    turns into cache identity, so every knob here is automatically
    part of the run key.
    """

    #: Open-system marker: analysis tiers that model only the closed
    #: SPMD dependency graph (simcost) refuse these runs.
    open_system = True

    #: Knobs this class no longer takes, at the values they are fixed
    #: to: :func:`~repro.harness.runcache.app_fingerprint` keys a run
    #: with them, so no stored run is re-keyed, and
    #: :func:`serving_app_from_dict` refuses them by name.
    retired_knobs: Dict[str, Any] = {
        "burst_ratio": clients.BURST_RATIO,
        "mean_burst_us": clients.MEAN_BURST_US,
        "mean_calm_us": clients.MEAN_CALM_US,
        "user_skew": clients.USER_SKEW,
        "write_ratio": clients.WRITE_RATIO,
        "load_balance": "round-robin",
        "sample_every_us": SAMPLE_EVERY_US,
    }

    def __init__(self, offered_rps: float = 200_000.0,
                 n_users: int = 100_000,
                 duration_us: float = 20_000.0,
                 max_requests: int = 2000,
                 arrivals: str = "poisson",
                 key_space: int = 4096,
                 service_us: float = 4.0,
                 slo_us: float = 250.0,
                 max_backlog: int = 2048) -> None:
        for name, value in (("service_us", service_us), ("slo_us", slo_us),
                            ("max_backlog", max_backlog)):
            if not math.isfinite(value):  # NaN passes every comparison
                raise ValueError(f"{name} must be finite, got {value}")
        if service_us < 0:
            raise ValueError(f"service_us must be >= 0, got {service_us}")
        if slo_us <= 0:
            raise ValueError(f"slo_us must be > 0, got {slo_us}")
        if max_backlog < 1:
            raise ValueError(
                f"max_backlog must be >= 1, got {max_backlog}")
        self.offered_rps = offered_rps
        self.n_users = n_users
        self.duration_us = duration_us
        self.max_requests = max_requests
        self.arrivals = arrivals
        self.key_space = key_space
        self.service_us = service_us
        self.slo_us = slo_us
        self.max_backlog = max_backlog
        self.tier()  # refuses a bad client-tier knob now, not at run time

    # -- configuration helpers ---------------------------------------------
    def with_changes(self, **overrides: Any) -> "ServingApp":
        """A copy of this scenario with some knobs replaced.

        Works generically because constructor kwargs are stored as
        same-named attributes (the fingerprint convention); the sweep
        machinery uses it for the offered-load axis.
        """
        from repro.harness.runcache import constructor_params
        kwargs: Dict[str, Any] = {}
        for name in constructor_params(type(self)):
            if hasattr(self, name):
                kwargs[name] = getattr(self, name)
        unknown = set(overrides) - set(kwargs)
        if unknown:
            raise ValueError(
                f"{type(self).__name__} has no knob(s) {sorted(unknown)}")
        kwargs.update(overrides)
        return type(self)(**kwargs)

    def tier(self) -> ClientTier:
        """The client-tier description for this scenario."""
        return ClientTier(
            n_users=self.n_users, offered_rps=self.offered_rps,
            duration_us=self.duration_us, max_requests=self.max_requests,
            arrivals=self.arrivals, key_space=self.key_space)

    @property
    def metrics(self) -> ServingMetrics:
        """This run's SLO instruments (valid after ``configure``)."""
        return self._metrics

    # -- Application lifecycle ---------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        self._trace: List[Request] = self.tier().trace(seed)
        self._metrics = ServingMetrics(n_nodes, slo_us=self.slo_us)
        self._pending: List[deque] = [deque() for _ in range(n_nodes)]
        self._ams: List[Any] = [None] * n_nodes
        self._injected = 0
        self._completed = 0
        self._dropped = 0
        self._feed_done = False
        self._aborted = False
        self._rr = 0

    def setup_rank(self, proc) -> Generator:
        self._ams[proc.rank] = proc.am
        proc.state["serve_app"] = self
        self._setup_shard(proc)
        if proc.rank == 0:
            # Piggyback the SLO instruments on ClusterStats so the
            # cache/store serialization path carries them unchanged.
            proc.stats.serving = self._metrics
        return
        yield  # pragma: no cover - makes this a generator

    def run_rank(self, proc) -> Generator:
        am = proc.am
        pending = self._pending[proc.rank]
        if proc.rank == 0:
            proc.sim.process(self._client_tier(proc.sim),
                             name="serve-clients")
            proc.sim.process(self._queue_sampler(proc.sim),
                             name="serve-sampler")

        def woken() -> bool:  # _finished(), spelled out: runs every wake
            return bool(pending) or (
                self._feed_done
                and self._completed + self._dropped >= self._injected)

        while True:
            yield from am.wait_until(woken)
            if pending:
                request, arrived = pending.popleft()
                if self._aborted:
                    self._account_drop(proc.rank)
                    continue
                yield from self._issue(proc, request, arrived)
                continue
            if self._finished():
                return

    def finalize(self, procs) -> ServingMetrics:
        self._metrics.finish(procs[0].stats.runtime_us)
        # The AmLayers hold the run's Simulator and its generators: an
        # app that kept them would not pickle (no re-queue to a pool
        # after an in-process run) and would pin the finished run.
        del self._ams, self._pending, self._trace
        return self._metrics

    # -- the client tier (outside the rank set) ----------------------------
    def _client_tier(self, sim) -> Generator:
        """Inject the arrival trace into frontend queues.

        Runs as its own simulator process: arrivals cost the *cluster*
        nothing until a frontend dispatches them (the client tier is
        outside the rank set), but arrival time stamps start the
        latency clock immediately, so frontend queueing is part of
        every request's measured latency.
        """
        t0 = sim.now
        n = len(self._ams)
        for request in self._trace:
            due = t0 + request.t_us
            if due > sim.now:
                yield due - sim.now
            backlog = self._injected - self._completed - self._dropped
            self._metrics.note_backlog(backlog)
            if backlog > self.max_backlog:
                # Queue growth detected: the cluster is not keeping up
                # with the offered load.  Stop injecting and let the
                # run drain to a structured "saturated" verdict.
                self._aborted = True
                self._metrics.note_saturation(sim.now - t0, backlog)
                break
            rank = self._rr % n
            self._rr += 1
            self._injected += 1
            self._metrics.on_arrival(rank)
            self._pending[rank].append((request, sim.now))
            self._ams[rank].kick()
        self._feed_done = True
        self._kick_all()

    def _queue_sampler(self, sim) -> Generator:
        """Sample per-node queue depths on a fixed simulated cadence."""
        while not self._finished():
            yield SAMPLE_EVERY_US
            for rank, am in enumerate(self._ams):
                depth = len(self._pending[rank]) + am.rx_pending
                self._metrics.on_queue_sample(rank, depth)

    # -- frontend bookkeeping ----------------------------------------------
    def _finished(self) -> bool:
        return (self._feed_done
                and self._completed + self._dropped >= self._injected)

    def _kick_all(self) -> None:
        for am in self._ams:
            if am is not None:
                am.kick()

    def _account_drop(self, rank: int) -> None:
        self._dropped += 1
        self._metrics.on_drop(rank)
        if self._finished():
            self._kick_all()

    def _complete_request(self, rank: int, arrived: float, write: bool,
                          sim) -> None:
        self._completed += 1
        self._metrics.on_complete(rank, sim.now - arrived, write=write)
        if self._finished():
            self._kick_all()

    def _countdown(self, proc, request: Request, arrived: float,
                   n_targets: int) -> Callable[[], None]:
        """The ``on_done`` of a request to several targets: it completes
        the request on the last of its ``n_targets`` calls."""
        rank = proc.rank
        left = {"n": n_targets}

        def done() -> None:
            left["n"] -= 1
            if left["n"] == 0:
                self._complete_request(rank, arrived, request.write,
                                       proc.sim)

        return done

    def _send(self, proc, target: int, handler: str, payload: Any,
              on_done: Callable[[], None],
              local_op: Callable[[Any], Any]) -> Generator:
        """One sub-request that reports to ``on_done`` (a
        :meth:`_countdown`).

        Remote targets go split-phase over the AM layer; a target that
        is the issuing frontend itself is served locally — the shard
        operation runs in place and only the service time is charged
        (packets to self never enter the network, matching the GAS
        layer's local-operation rule).
        """
        if target == proc.rank:
            local_op(proc)
            self._metrics.on_served(proc.rank, self.service_us)
            if self.service_us > 0:
                yield self.service_us
            on_done()
            return
        yield from proc.am.send_request(target, handler, payload=payload,
                                        on_reply=lambda _payload: on_done())

    # -- subclass contract --------------------------------------------------
    def _setup_shard(self, proc) -> None:
        """Install per-rank shard state in ``proc.state``."""
        raise NotImplementedError

    def _issue(self, proc, request: Request, arrived: float) -> Generator:
        """Dispatch one client request split-phase; must eventually
        call :meth:`_complete_request` exactly once."""
        raise NotImplementedError


class KVServe(ServingApp):
    """Sharded key-value store: one shard per key, on ``key % P``."""

    name = "kvserve"

    #: Only KVServe took the replication knobs.
    retired_knobs = {**ServingApp.retired_knobs, "replication": "none",
                     "read_anywhere": True}

    def _setup_shard(self, proc) -> None:
        proc.state["serve_store"] = {}

    def _issue(self, proc, request: Request, arrived: float) -> Generator:
        """A request this frontend shards itself goes through
        :meth:`_send`; any other is sent from here with one reply
        callback."""
        rank, key, write = proc.rank, request.key, request.write
        target = key % proc.n_ranks
        if target == rank:
            yield from self._send(
                proc, target, "serve_kv", (key, write),
                self._countdown(proc, request, arrived, 1),
                lambda p: _kv_apply(p.state["serve_store"], key, write))
            return

        def replied(_payload: Any) -> None:
            self._complete_request(rank, arrived, write, proc.sim)

        yield from proc.am.send_request(target, "serve_kv",
                                        payload=(key, write),
                                        on_reply=replied)

    def register_handlers(self, table) -> None:
        table.register("serve_kv", _serve_kv)


class FanoutServe(ServingApp):
    """Scatter-gather RPC service: every request queries ``fanout``
    shards and completes on the last reply (tail amplification)."""

    name = "fanout"

    def __init__(self, fanout: int = 4, **kwargs: Any) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        self.fanout = fanout
        super().__init__(**kwargs)

    def _setup_shard(self, proc) -> None:
        proc.state["serve_hits"] = [0] * max(1, self.key_space)

    def _issue(self, proc, request: Request, arrived: float) -> Generator:
        k = min(self.fanout, proc.n_ranks)
        base = request.key % proc.n_ranks
        done = self._countdown(proc, request, arrived, k)
        for i in range(k):
            yield from self._send(
                proc, (base + i) % proc.n_ranks, "serve_fanout",
                request.key, done,
                lambda p: _fanout_apply(p.state["serve_hits"], request.key))

    def register_handlers(self, table) -> None:
        table.register("serve_fanout", _serve_fanout)


#: Workload-spec registry (``CampaignSpec.workload["app"]`` values).
SERVING_APPS = {
    KVServe.name: KVServe,
    FanoutServe.name: FanoutServe,
}


def serving_app_from_dict(data: Dict[str, Any]) -> ServingApp:
    """Build a serving scenario from a JSON workload dict.

    ``data["app"]`` names the scenario (one of :data:`SERVING_APPS`);
    every other key is a constructor knob.  This is the factory behind
    ``CampaignSpec.workload``, so a retired or unknown knob is refused
    by name.
    """
    spec = dict(data)
    kind = spec.pop("app", None)
    if kind not in SERVING_APPS:
        raise ValueError(
            f"workload 'app' must be one of {sorted(SERVING_APPS)}, "
            f"got {kind!r}")
    app_class = SERVING_APPS[kind]
    for name in spec:
        if name in app_class.retired_knobs:
            raise ValueError(
                f"{kind} no longer takes {name!r}: it is fixed at "
                f"{app_class.retired_knobs[name]!r}")
    return app_class().with_changes(**spec)
