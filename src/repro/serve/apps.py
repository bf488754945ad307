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
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.am.layer import HandlerReply, Reply
from repro.apps.base import Application
from repro.serve.clients import ClientTier, Request
from repro.serve.metrics import ServingMetrics

__all__ = ["ServingApp", "KVServe", "FanoutServe", "SERVING_APPS",
           "serving_app_from_dict"]

#: Simulated µs between two samples of every node's queue depth.
SAMPLE_EVERY_US = 100.0


# ---------------------------------------------------------------------------
# Shard operations (one per scenario; run by its handler and in place).
# ---------------------------------------------------------------------------

def _kv_apply(store: Dict[int, int], payload: Tuple[int, bool]) -> int:
    """The key-value shard operation itself: read, or count a write."""
    key, write = payload
    if write:
        value = store[key] = store.get(key, 0) + 1
        return value
    return store.get(key, 0)


def _fanout_apply(hits: List[int], key: int) -> int:
    """The scatter-gather shard sub-query."""
    slot = key % len(hits)
    hits[slot] += 1
    return hits[slot]


# ---------------------------------------------------------------------------
# The scenario family.
# ---------------------------------------------------------------------------

class ServingApp(Application):
    """Shared machinery of the open-system serving scenarios.

    Subclasses provide the per-request dispatch (:meth:`_issue`), an
    empty shard (:meth:`_new_shard`) and their handler, built from their
    shard operation by :meth:`_shard_handler`; this base owns the client
    tier, the round-robin frontend assignment, the frontend loop, the
    saturation guard, the queue sampler, and the :class:`ServingMetrics`
    instruments, which it updates in place.

    Constructor arguments are all stored as same-named attributes —
    the convention :func:`~repro.harness.runcache.app_fingerprint`
    turns into cache identity, so every knob here is automatically
    part of the run key.
    """

    #: Open-system marker: analysis tiers that model only the closed
    #: SPMD dependency graph (simcost) refuse these runs.
    open_system = True

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
        from repro.harness.runcache import constructor_kwargs
        kwargs = constructor_kwargs(self)
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
        self._shards: List[Any] = [self._new_shard() for _ in range(n_nodes)]
        self._pending: List[deque] = [deque() for _ in range(n_nodes)]
        self._ams: List[Any] = [None] * n_nodes
        self._feed_done = False
        #: The feed has ended and every request it injected completed or
        #: was dropped: what each frontend's wait and the sampler test.
        self._done = False
        self._aborted = False

    def setup_rank(self, proc) -> Generator:
        self._ams[proc.rank] = proc.am
        if proc.rank == 0:
            # Piggyback the SLO instruments on ClusterStats so the
            # cache/store serialization path carries them unchanged.
            proc.stats.serving = self._metrics
        return
        yield  # pragma: no cover - makes this a generator

    def run_rank(self, proc) -> Generator:
        rank = proc.rank
        pending = self._pending[rank]
        if rank == 0:
            proc.sim.process(self._client_tier(proc.sim),
                             name="serve-clients")
            proc.sim.process(self._queue_sampler(proc.sim),
                             name="serve-sampler")

        def woken() -> Any:  # runs every wake: work queued, or all done
            return pending or self._done

        wait_until, issue = proc.am.wait_until, self._issue
        while True:
            yield from wait_until(woken)
            if not pending:
                return  # woken with nothing queued: the run is done
            request, arrived = pending.popleft()
            if self._aborted:
                self._account_drop(rank)
            else:
                yield from issue(proc, request, arrived)

    def finalize(self, procs) -> ServingMetrics:
        self._metrics.finish(procs[0].stats.runtime_us)
        # The AmLayers hold the run's Simulator and its generators: an
        # app that kept them would not pickle (no re-queue to a pool
        # after an in-process run) and would pin the finished run.
        del self._ams, self._pending, self._trace, self._shards
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
        metrics, pending, ams = self._metrics, self._pending, self._ams
        assigned, n, limit = metrics.assigned, len(ams), self.max_backlog
        for request in self._trace:
            due = t0 + request.t_us
            if due > sim.now:
                yield due - sim.now
            backlog = metrics.arrivals - metrics.completed - metrics.dropped
            if backlog > metrics.max_backlog:
                metrics.max_backlog = backlog
            if backlog > limit:
                # Queue growth detected: the cluster is not keeping up
                # with the offered load.  Stop injecting and let the
                # run drain to a structured "saturated" verdict.
                self._aborted = True
                metrics.saturated = True
                metrics.saturated_at_us = sim.now - t0
                metrics.saturation_backlog = backlog
                break
            rank = metrics.arrivals % n  # round robin
            metrics.arrivals += 1
            assigned[rank] += 1
            pending[rank].append((request, sim.now))
            ams[rank].kick()
        self._feed_done = True
        self._done = metrics.completed + metrics.dropped >= metrics.arrivals
        self._kick_all()

    def _queue_sampler(self, sim) -> Generator:
        """Sample per-node queue depths on a fixed simulated cadence."""
        metrics = self._metrics
        samples, depths, deepest = (metrics.queue_count, metrics.queue_sum,
                                    metrics.queue_max)
        queues = [(rank, self._pending[rank], am.rx_queue)
                  for rank, am in enumerate(self._ams)]
        while not self._done:
            yield SAMPLE_EVERY_US
            for rank, pending, rx in queues:
                depth = len(pending) + len(rx)
                samples[rank] += 1
                depths[rank] += depth
                if depth > deepest[rank]:
                    deepest[rank] = depth

    # -- serving and frontend bookkeeping ----------------------------------
    def _shard_handler(self, apply: Callable[[Any, Any], Any]) -> Callable:
        """This run's AM handler for one shard operation: it runs
        ``apply(shard, payload)`` on the serving rank's shard, counts
        the request served there, samples that rank's receive queue,
        and replies with the value after ``service_us`` of host time."""
        metrics, shards, service_us = (self._metrics, self._shards,
                                       self.service_us)
        served, busy = metrics.served_by, metrics.service_us_by
        samples, depths, deepest = (metrics.queue_count, metrics.queue_sum,
                                    metrics.queue_max)

        def serve(am, packet) -> HandlerReply:
            node = am.node_id
            value = apply(shards[node], packet.payload)
            served[node] += 1
            busy[node] += service_us
            depth = len(am.rx_queue)
            samples[node] += 1
            depths[node] += depth
            if depth > deepest[node]:
                deepest[node] = depth
            return Reply(value, service_us=service_us)

        return serve

    def _serve_in_place(self, rank: int,
                        on_done: Callable[[Any], None]) -> Generator:
        """Serve a (sub-)request whose shard is its frontend, then call
        ``on_done(None)`` as its reply would: the caller has run the
        shard operation, and only the service time is charged (packets
        to self never enter the network, matching the GAS layer's
        local-operation rule)."""
        metrics = self._metrics
        metrics.served_by[rank] += 1
        metrics.service_us_by[rank] += self.service_us
        if self.service_us > 0:
            yield self.service_us
        on_done(None)

    def _kick_all(self) -> None:
        for am in self._ams:
            if am is not None:
                am.kick()

    def _account_drop(self, rank: int) -> None:
        metrics = self._metrics
        metrics.dropped += 1
        metrics.dropped_by[rank] += 1
        self._settle()

    def _complete_request(self, sim, rank: int, arrived: float,
                          write: bool, _payload: Any = None) -> None:
        """Complete one request at its frontend ``rank``; with its first
        four arguments bound, the reply callback of a request."""
        latency_us = sim.now - arrived
        metrics = self._metrics
        metrics.completed += 1
        metrics.completed_by[rank] += 1
        if write:
            metrics.writes_completed += 1
        else:
            metrics.reads_completed += 1
        if latency_us <= metrics.slo_us:
            metrics.within_slo += 1
        metrics.latency.record(latency_us)
        if self._feed_done:
            self._settle()

    def _settle(self) -> None:
        """Once the feed has ended and every request it injected has
        completed or been dropped, the run is done: wake every frontend
        to see it."""
        metrics = self._metrics
        if self._feed_done and \
                metrics.completed + metrics.dropped >= metrics.arrivals:
            self._done = True
            self._kick_all()

    # -- subclass contract --------------------------------------------------
    def _new_shard(self) -> Any:
        """One rank's empty shard state."""
        raise NotImplementedError

    def _issue(self, proc, request: Request, arrived: float) -> Generator:
        """The generator that dispatches one client request split-phase;
        it must eventually call :meth:`_complete_request` exactly
        once."""
        raise NotImplementedError


class KVServe(ServingApp):
    """Sharded key-value store: one shard per key, on ``key % P``."""

    name = "kvserve"

    def _new_shard(self) -> Dict[int, int]:
        return {}

    def _issue(self, proc, request: Request, arrived: float) -> Generator:
        """The AM layer's own send, for a request whose shard is remote,
        with :meth:`_complete_request` bound as its reply callback; a
        request this frontend shards itself is served in place.  Not a
        generator itself: the send's frame is the only one it adds."""
        rank, key, write = proc.rank, request.key, request.write
        done = partial(self._complete_request, proc.sim, rank, arrived,
                       write)
        target = key % proc.n_ranks
        if target == rank:
            _kv_apply(self._shards[rank], (key, write))
            return self._serve_in_place(rank, done)
        return proc.am.send_request(target, "serve_kv",
                                    payload=(key, write), on_reply=done)

    def register_handlers(self, table) -> None:
        table.register("serve_kv", self._shard_handler(_kv_apply))


class FanoutServe(ServingApp):
    """Scatter-gather RPC service: every request queries ``fanout``
    shards and completes on the last reply (tail amplification)."""

    name = "fanout"

    def __init__(self, fanout: int = 4, **kwargs: Any) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        self.fanout = fanout
        super().__init__(**kwargs)

    def _new_shard(self) -> List[int]:
        return [0] * max(1, self.key_space)

    def _issue(self, proc, request: Request, arrived: float) -> Generator:
        """Every sub-request is sent (or served in place) from here; one
        countdown cell completes the request on the last of them."""
        rank, key, n, sim = proc.rank, request.key, proc.n_ranks, proc.sim
        k = min(self.fanout, n)
        base = key % n
        left = [k]

        def replied(_payload: Any) -> None:
            left[0] -= 1
            if left[0] == 0:
                self._complete_request(sim, rank, arrived, request.write)

        send_request = proc.am.send_request
        for i in range(k):
            target = (base + i) % n
            if target == rank:
                _fanout_apply(self._shards[rank], key)
                yield from self._serve_in_place(rank, replied)
            else:
                yield from send_request(target, "serve_fanout", payload=key,
                                        on_reply=replied)

    def register_handlers(self, table) -> None:
        table.register("serve_fanout", self._shard_handler(_fanout_apply))


#: Workload-spec registry (``CampaignSpec.workload["app"]`` values).
SERVING_APPS = {
    KVServe.name: KVServe,
    FanoutServe.name: FanoutServe,
}


def serving_app_from_dict(data: Dict[str, Any]) -> ServingApp:
    """Build a serving scenario from a JSON workload dict.

    ``data["app"]`` names the scenario (one of :data:`SERVING_APPS`);
    every other key is a constructor knob.  This is the factory behind
    ``CampaignSpec.workload``, so an unknown knob is refused by name
    (:meth:`ServingApp.with_changes`).
    """
    spec = dict(data)
    kind = spec.pop("app", None)
    if kind not in SERVING_APPS:
        raise ValueError(
            f"workload 'app' must be one of {sorted(SERVING_APPS)}, "
            f"got {kind!r}")
    return SERVING_APPS[kind]().with_changes(**spec)
