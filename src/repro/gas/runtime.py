"""The per-rank SPMD execution context.

A :class:`Proc` is what application code programs against: it bundles the
rank id, the node (CPU cost model, disks), the Active Message endpoint,
the global-address-space operations, collectives, and locks.  One Proc
exists per node per run; the application's ``run_rank(proc)`` generator
executes as that node's host process.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from typing import Any, Dict, Generator, Iterable, List, Optional

import numpy as np

from repro.am.layer import AmLayer, HandlerReply, HandlerTable, Reply
from repro.cluster.node import Node
from repro.gas import sync
from repro.gas.memory import GlobalArray
from repro.gas.sync import DistributedLock
from repro.instruments.stats import ClusterStats
from repro.sim import Simulator
from repro.sim.events import bad_delay

__all__ = ["Proc", "LivelockError", "register_gas_handlers"]

#: Default per-rank cap on failed lock attempts before a run is declared
#: livelocked (the paper reports Barnes "does not complete" past a point).
DEFAULT_LIVELOCK_LIMIT = 200_000


class LivelockError(RuntimeError):
    """A run exceeded its failed-lock-attempt budget (Barnes livelock)."""


class Proc:
    """One SPMD rank: the application-facing API of the whole substrate."""

    def __init__(self, sim: Simulator, rank: int, n_ranks: int, node: Node,
                 am: AmLayer, stats: Optional[ClusterStats] = None,
                 seed: int = 0,
                 livelock_limit: int = DEFAULT_LIVELOCK_LIMIT) -> None:
        self.sim = sim
        self.rank = rank
        self.n_ranks = n_ranks
        self.node = node
        self.am = am
        self.probes = am.probes
        #: The run's result record; hooks reach it through ``probes``.
        self.stats = stats
        self.livelock_limit = livelock_limit
        #: Owner rank -> count of unacknowledged writes toward it; kept
        #: only while ``am.watching``, for sync() wait-for annotations.
        self._pending_write_dsts: Dict[int, int] = {}
        #: Deterministic per-rank random stream for application use.
        self.rng = random.Random(seed * 1_000_003 + rank)
        #: Application-local scratch space (handlers reach it as
        #: ``am.host.state``).
        self.state: Dict[str, Any] = {}
        # Global address space bookkeeping.
        self._arrays: Dict[int, np.ndarray] = {}
        self._array_meta: Dict[int, GlobalArray] = {}
        self._next_array_id = 0
        self._pending_writes = 0
        # Collectives and locks.  Only ``repro.coll`` reads or writes the
        # box: its one deposit handler and the schedules waiting on it.
        self._epochs: defaultdict = defaultdict(int)
        self.collective_box: Dict[tuple, Any] = {}
        self.lock_table: Dict[int, bool] = {}
        self._failed_locks = 0

    # -- identity ------------------------------------------------------------
    @property
    def cost(self):
        """The node's CPU cost model."""
        return self.node.cost

    def next_epoch(self, kind: str) -> int:
        """Advance and return the epoch counter for a collective type."""
        self._epochs[kind] += 1
        return self._epochs[kind]

    # -- computation -----------------------------------------------------------
    def compute(self, us: float) -> Generator:
        """Charge ``us`` microseconds of local computation."""
        us = float(us)  # an int or numpy cost sleeps on the engine's fast path
        if not 0.0 <= us < math.inf:
            raise bad_delay("timeout delay", us)
        self.node.compute_us += us
        if us > 0:
            yield us

    def poll(self) -> Generator:
        """Service any pending incoming messages."""
        yield from self.am.poll()

    # -- global address space ----------------------------------------------------
    def allocate(self, length: int, layout: str = "block",
                 dtype: str = "int64", item_bytes: int = 4,
                 name: str = "") -> GlobalArray:
        """Collectively declare a global array (all ranks, same order)."""
        array_id = self._next_array_id
        self._next_array_id += 1
        meta = GlobalArray(array_id, length, self.n_ranks, layout=layout,
                           dtype=dtype, item_bytes=item_bytes, name=name)
        self._array_meta[array_id] = meta
        self._arrays[array_id] = meta.make_local_storage(self.rank)
        return meta

    def local(self, array: GlobalArray) -> np.ndarray:
        """This rank's local part of ``array`` (direct numpy access)."""
        return self._arrays[array.array_id]

    def read(self, array: GlobalArray, index: int) -> Generator:
        """Blocking read of a global element (Split-C ``x := g[i]``)."""
        owner, local_index = array.owner_of(index)
        hook = self.probes.access
        if hook is not None:
            hook(self.rank, array, index, "read")
        if owner == self.rank:
            yield from self.compute(self.cost.ops(1))
            return self._arrays[array.array_id][local_index]
        value = yield from self.am.rpc(
            owner, "_gas_read", (array.array_id, local_index),
            is_read=True)
        return value

    def write(self, array: GlobalArray, index: int, value: Any,
              mode: str = "put") -> Generator:
        """Pipelined (split-phase) write; completion observed by
        :meth:`sync`.  ``mode='add'`` accumulates, ``mode='min'`` keeps
        the smaller value (monotone hooking for connected components)."""
        if mode not in ("put", "add", "min"):
            raise ValueError(f"unknown write mode {mode!r}")
        owner, local_index = array.owner_of(index)
        hook = self.probes.access
        if hook is not None:
            hook(self.rank, array, index, mode)
        if owner == self.rank:
            _apply_write(self._arrays[array.array_id], local_index,
                         value, mode)
            yield from self.compute(self.cost.ops(1))
            return
        self._pending_writes += 1
        yield from self.am.send_request(
            owner, "_gas_write",
            (array.array_id, local_index, value, mode),
            on_reply=self._ack_tracker(owner))

    def _write_acked(self, _payload: Any) -> None:
        self._pending_writes -= 1

    def _ack_tracker(self, owner: int):
        """The on-reply callback for a split-phase write toward ``owner``.

        Unwatched this is the shared :meth:`_write_acked` bound method
        (no allocation); while ``am.watching`` a closure also maintains
        the per-destination count that sync() annotations report.
        """
        if not self.am.watching:
            return self._write_acked
        dsts = self._pending_write_dsts
        dsts[owner] = dsts.get(owner, 0) + 1

        def acked(_payload: Any) -> None:
            self._pending_writes -= 1
            remaining = dsts[owner] - 1
            if remaining:
                dsts[owner] = remaining
            else:
                del dsts[owner]

        return acked

    def sync(self) -> Generator:
        """Wait for all outstanding writes to be acknowledged
        (Split-C's ``sync()``)."""
        wait = None
        if self.am.watching and self._pending_writes:
            wait = ("sync", tuple(sorted(self._pending_write_dsts)),
                    f"{self._pending_writes} unacknowledged write(s)")
        yield from self.am.wait_until(
            lambda: self._pending_writes == 0, wait=wait)

    def bulk_get(self, array: GlobalArray, start: int,
                 count: int) -> Generator:
        """Blocking bulk read of a contiguous remote run."""
        owner, local_start = array.owner_of_range(start, count)
        hook = self.probes.range
        if hook is not None:
            hook(self.rank, array, start, count, "bulk_get")
        if owner == self.rank:
            storage = self._arrays[array.array_id]
            values = storage[local_start:local_start + count].copy()
            yield from self.compute(
                self.cost.copy_bytes(count * array.item_bytes))
            return values
        reply = yield from self.am.bulk_rpc(
            owner, "_gas_bulk_get", (array.array_id, local_start, count))
        payload, _nbytes = reply
        return payload

    def bulk_put(self, array: GlobalArray, start: int,
                 values: Iterable[Any]) -> Generator:
        """Split-phase bulk write of a contiguous run; see :meth:`sync`."""
        values = np.asarray(values)
        count = len(values)
        owner, local_start = array.owner_of_range(start, count)
        hook = self.probes.range
        if hook is not None:
            hook(self.rank, array, start, count, "bulk_put")
        if owner == self.rank:
            storage = self._arrays[array.array_id]
            storage[local_start:local_start + count] = values
            yield from self.compute(
                self.cost.copy_bytes(count * array.item_bytes))
            return
        self._pending_writes += 1
        yield from self.am.bulk_store(
            owner, "_gas_bulk_put",
            (array.array_id, local_start, values),
            array.transfer_bytes(count),
            on_complete=self._ack_tracker(owner))

    # -- collectives -----------------------------------------------------------
    # Each method picks its schedule from the ``repro.coll`` registry when
    # called (``coll.algorithms.pick``: ``algo=``, or the registry
    # default) and returns that schedule's generator.  The import is
    # lazy, so importing the harness never loads ``repro.coll``.

    def barrier(self, algo: Optional[str] = None) -> Generator:
        """Barrier over all ranks (default: dissemination)."""
        from repro.coll.algorithms import pick
        from repro.coll.core import TOKEN_BYTES
        return pick(self, "barrier", TOKEN_BYTES, algo)(self)

    def broadcast(self, value: Any = None, root: int = 0, size: int = 32,
                  bulk: bool = False,
                  algo: Optional[str] = None) -> Generator:
        """Broadcast from ``root``; returns the value on every rank."""
        from repro.coll.algorithms import pick
        return pick(self, "broadcast", size, algo)(
            self, value, root=root, size=size, bulk=bulk)

    def reduce(self, value: Any, op, root: int = 0,
               size: int = 32, bulk: bool = False,
               algo: Optional[str] = None) -> Generator:
        """Reduction to ``root`` (other ranks receive ``None``)."""
        from repro.coll.algorithms import pick
        return pick(self, "reduce", size, algo)(
            self, value, op, root=root, size=size, bulk=bulk)

    def allreduce(self, value: Any, op, size: int = 32,
                  bulk: bool = False, elementwise: bool = False,
                  algo: Optional[str] = None) -> Generator:
        """Reduction whose result lands on every rank.

        Declare ``elementwise=True`` (identically on every rank) when
        ``value`` is a sliceable vector and ``op`` acts elementwise — it
        makes the Rabenseifner ring eligible.
        """
        from repro.coll.algorithms import pick
        return pick(self, "allreduce", size, algo, elementwise=elementwise)(
            self, value, op, size=size, bulk=bulk, elementwise=elementwise)

    def gather(self, value: Any, root: int = 0, size: int = 32,
               bulk: bool = False,
               algo: Optional[str] = None) -> Generator:
        """Gather one value per rank to ``root`` (a rank-ordered list;
        other ranks receive ``None``).  ``size`` is the per-rank size."""
        from repro.coll.algorithms import pick
        return pick(self, "gather", size, algo)(
            self, value, root=root, size=size, bulk=bulk)

    def scatter(self, values: Optional[List[Any]] = None, root: int = 0,
                size: int = 32, bulk: bool = False,
                algo: Optional[str] = None) -> Generator:
        """Scatter ``values[r]`` from ``root`` to each rank ``r``; returns
        this rank's slot.  ``size`` is the per-rank size."""
        from repro.coll.algorithms import pick
        return pick(self, "scatter", size, algo)(
            self, values, root=root, size=size, bulk=bulk)

    def allgather(self, value: Any, size: int = 32, bulk: bool = False,
                  algo: Optional[str] = None) -> Generator:
        """Gather one value per rank onto every rank (rank-ordered list)."""
        from repro.coll.algorithms import pick
        return pick(self, "allgather", size, algo)(
            self, value, size=size, bulk=bulk)

    def alltoall(self, values: List[Any], size: int = 32,
                 sizes: Optional[List[int]] = None, bulk: bool = False,
                 dense: bool = False,
                 algo: Optional[str] = None) -> Generator:
        """Personalized all-to-all: rank ``s`` delivers ``values[d]`` to
        rank ``d``; returns the rank-ordered received list.

        ``None`` slots send nothing (sparse), ``sizes`` overrides the
        per-destination wire size.  Declare ``dense=True`` (identically on
        every rank) when every slot is populated — it makes the Bruck
        schedule eligible.  ``size``/``sizes`` count per-destination bytes.
        """
        from repro.coll.algorithms import pick
        total = sum(sizes) if sizes is not None \
            else size * max(0, self.n_ranks - 1)
        return pick(self, "alltoall", total, algo, dense=dense,
                    uniform=sizes is None)(
            self, values, size=size, sizes=sizes, bulk=bulk, dense=dense)

    # -- locks -------------------------------------------------------------------
    def lock(self, lock: DistributedLock,
             retry_backoff_us: float = 1.0) -> Generator:
        """Blocking lock acquire (test-and-set with retry)."""
        yield from sync.acquire(self, lock, retry_backoff_us)

    def unlock(self, lock: DistributedLock) -> Generator:
        """Release a held lock."""
        yield from sync.release(self, lock)

    def note_failed_lock(self) -> None:
        """Record a denied lock attempt; abort the run past the limit."""
        self._failed_locks += 1
        hook = self.probes.failed_lock
        if hook is not None:
            hook(self.rank)
        if self._failed_locks > self.livelock_limit:
            raise LivelockError(
                f"rank {self.rank} exceeded {self.livelock_limit} failed "
                "lock attempts; declaring livelock (the paper reports "
                "Barnes does not complete past this regime)")

    # -- misc ----------------------------------------------------------------------
    def disk(self, index: int = 0):
        """The node's ``index``-th disk."""
        return self.node.disk(index)

    def __repr__(self) -> str:
        return f"<Proc rank={self.rank}/{self.n_ranks}>"


# ---------------------------------------------------------------------------
# Global-address-space Active Message handlers.
# ---------------------------------------------------------------------------

def _gas_read(am: AmLayer, packet) -> Any:
    """Serve a blocking remote read: reply with the element value."""
    array_id, local_index = packet.payload
    return am.host._arrays[array_id][local_index]


def _apply_write(storage, local_index: int, value: Any, mode: str) -> None:
    if mode == "add":
        storage[local_index] += value
    elif mode == "min":
        if value < storage[local_index]:
            storage[local_index] = value
    else:
        storage[local_index] = value


def _gas_write(am: AmLayer, packet) -> None:
    """Apply a remote write/accumulate/min; the auto-ack completes it."""
    array_id, local_index, value, mode = packet.payload
    _apply_write(am.host._arrays[array_id], local_index, value, mode)


def _gas_bulk_get(am: AmLayer, packet) -> HandlerReply:
    """Serve a bulk get: reply with a bulk transfer of the run."""
    proc: Proc = am.host
    array_id, local_start, count = packet.payload
    meta = proc._array_meta[array_id]
    storage = proc._arrays[array_id]
    values = storage[local_start:local_start + count].copy()
    return Reply(values, nbytes=meta.transfer_bytes(count))


def _gas_bulk_put(am: AmLayer, packet) -> None:
    """Land a bulk put into local storage; the auto-ack completes it."""
    array_id, local_start, values = packet.payload
    storage = am.host._arrays[array_id]
    storage[local_start:local_start + len(values)] = values


def _gas_lock_try(am: AmLayer, packet) -> bool:
    """Test-and-set at the lock's home; reply grant or denial."""
    proc: Proc = am.host
    lock_id = packet.payload
    held = proc.lock_table.get(lock_id, False)
    if not held:
        proc.lock_table[lock_id] = True
    return not held


def _gas_lock_release(am: AmLayer, packet) -> None:
    """Clear a lock at its home node."""
    am.host.lock_table[packet.payload] = False


def register_gas_handlers(table: HandlerTable) -> None:
    """Install the reserved ``_gas_*`` handlers used by :class:`Proc`,
    plus the ``repro.coll`` deposit handler every collective sends to."""
    from repro.coll.core import register_coll_handlers
    register_coll_handlers(table)
    table.register("_gas_read", _gas_read)
    table.register("_gas_write", _gas_write)
    table.register("_gas_bulk_get", _gas_bulk_get)
    table.register("_gas_bulk_put", _gas_bulk_put)
    table.register("_gas_lock_try", _gas_lock_try)
    table.register("_gas_lock_release", _gas_lock_release)
