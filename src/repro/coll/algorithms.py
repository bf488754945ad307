"""The algorithm registry: the schedules each primitive can run.

The four primitives Table 8 grades — broadcast, allreduce, allgather
and alltoall — have two interchangeable schedules each; barrier and
gather have one.

Every implementation is a generator with the same signature as its
primitive's :class:`~repro.gas.runtime.Proc` method (minus ``algo``)
and produces the same result on every rank — only the message schedule
(and therefore the simulated cost) differs.  Following Barchet-Estefanel
& Mounie, the winning schedule flips with message size, P, and the LogGP
parameters, which is what Table 8 grades the cost model on.

The paper's Split-C schedules — the ``dissemination`` barrier and the
``binomial`` broadcast / allreduce — are the defaults; a call
that names no schedule runs exactly them.

Eligibility: a few schedules require structural properties the caller
must declare (SPMD-uniformly) because they cannot be inferred from one
rank's arguments alone — ``allreduce``'s ring needs a sliceable vector
value with an elementwise ``op``; ``alltoall``'s Bruck schedule needs a
dense, uniform-size value set.  :func:`eligible_algorithms` encodes
those rules, and :func:`pick` — which every
:class:`~repro.gas.runtime.Proc` collective method calls — applies them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.coll.core import ceil_log2, recv_value, send_value
from repro.network.packet import SHORT_PACKET_BYTES

__all__ = ["PRIMITIVES", "DEFAULT_ALGORITHMS", "registry",
           "algorithms_for", "get_algorithm", "eligible_algorithms",
           "pick", "CHAIN_SEGMENT_BYTES"]

#: Every primitive the subsystem dispatches.
PRIMITIVES = ("barrier", "broadcast", "allreduce", "gather",
              "allgather", "alltoall")

#: The default schedule per primitive: the paper's schedule where
#: Split-C had one, otherwise the simplest schedule.
DEFAULT_ALGORITHMS = {
    "barrier": "dissemination",
    "broadcast": "binomial",
    "allreduce": "binomial",
    "gather": "flat",
    "allgather": "ring",
    "alltoall": "flat",
}

#: Segment size of the pipelined chain broadcast (one bulk fragment).
CHAIN_SEGMENT_BYTES = 4096


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def barrier_dissemination(proc: "Proc") -> Generator:  # noqa: F821
    """Dissemination barrier: ``ceil(log2 P)`` rounds, each rank sending
    one short token per round; all ranks leave within one round trip of
    each other."""
    n = proc.n_ranks
    if n > 1:
        epoch = proc.next_epoch("barrier")
        rank, am, box = proc.rank, proc.am, proc.collective_box
        for rnd in range(ceil_log2(n)):
            key = ("barrier", epoch, rnd)
            yield from send_value(proc, (rank + (1 << rnd)) % n, key,
                                  None, SHORT_PACKET_BYTES)
            # recv_value inline: a barrier wait services whatever traffic
            # is in flight, and this spares every such resume a frame.
            wait = None if not am.watching else \
                ("barrier", ((rank - (1 << rnd)) % n,),
                 f"barrier epoch {epoch} round {rnd}")
            yield from am.wait_until(lambda k=key: k in box, wait=wait)
            del box[key]
    proc.barriers += 1
    hook = proc.probes.barrier
    if hook is not None:
        hook(proc.rank)


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------

def broadcast_binomial(proc: "Proc", value: Any = None,  # noqa: F821
                       root: int = 0, size: int = 32,
                       bulk: bool = False) -> Generator:
    """Binomial-tree broadcast; ``bulk=True`` moves the value as a bulk
    transfer (for splitter tables etc.)."""
    n = proc.n_ranks
    epoch = proc.next_epoch("bcast")
    if n == 1:
        return value
    vrank = (proc.rank - root) % n
    key = ("bcast", epoch)
    if vrank != 0:
        # The binomial-tree parent: clear the top set bit of vrank.
        parent_v = vrank - (1 << (vrank.bit_length() - 1))
        value = yield from recv_value(proc, key, (parent_v + root) % n,
                                      f"bcast epoch {epoch}")
    # Forward down the binomial tree: the child spanning the largest
    # subtree first, so deep subtrees start as early as possible.
    for k in reversed(range(ceil_log2(n))):
        peer = vrank + (1 << k)
        if vrank < (1 << k) and peer < n:
            yield from send_value(proc, (peer + root) % n, key, value,
                                  size, bulk=bulk)
    return value


def broadcast_chain(proc: "Proc", value: Any = None,  # noqa: F821
                    root: int = 0, size: int = 32,
                    bulk: bool = False) -> Generator:
    """Segmented pipelined chain: rank ``i`` forwards each segment to
    ``i + 1`` as soon as it arrives.

    Latency grows with P, but for bulk payloads much larger than one
    segment the pipeline keeps every link busy, approaching one full
    payload time regardless of depth (van de Geijn's pipelined trees).
    """
    n = proc.n_ranks
    if n == 1:
        return value
    epoch = proc.next_epoch("coll:bcast")
    vrank = (proc.rank - root) % n
    nbytes = max(1, int(size))
    nseg = max(1, -(-nbytes // CHAIN_SEGMENT_BYTES)) if bulk else 1
    base, extra = divmod(nbytes, nseg)
    prev = (vrank - 1 + root) % n
    succ = (vrank + 1 + root) % n
    for seg in range(nseg):
        key = ("cchain", epoch, seg)
        if vrank != 0:
            got = yield from recv_value(
                proc, key, prev,
                f"chain bcast epoch {epoch} segment {seg}")
            if seg == nseg - 1:
                value = got
        if vrank != n - 1:
            # The value itself rides the last segment; earlier segments
            # model the leading bytes of the payload.
            payload = value if seg == nseg - 1 else None
            seg_bytes = base + (1 if seg < extra else 0)
            yield from send_value(proc, succ, key, payload, seg_bytes,
                                  bulk=bulk)
    return value


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------

def reduce_binomial(proc: "Proc", value: Any,  # noqa: F821
                    op: Callable[[Any, Any], Any], root: int = 0,
                    size: int = 32, bulk: bool = False) -> Generator:
    """Binomial-tree reduction, :func:`allreduce_binomial`'s first half;
    the result lands on ``root`` (others get ``None``).  ``bulk=True``
    ships partials as bulk transfers, paying ``G`` per byte."""
    n = proc.n_ranks
    epoch = proc.next_epoch("reduce")
    if n == 1:
        return value
    vrank = (proc.rank - root) % n
    partial = value
    for k in range(ceil_log2(n)):
        bit = 1 << k
        if vrank & bit:
            yield from send_value(proc, ((vrank - bit) + root) % n,
                                  ("reduce", epoch, k), partial, size,
                                  bulk=bulk)
            return None
        peer = vrank + bit
        if peer < n:
            got = yield from recv_value(
                proc, ("reduce", epoch, k), (peer + root) % n,
                f"reduce epoch {epoch} round {k}")
            partial = op(partial, got)
    return partial


def allreduce_binomial(proc: "Proc", value: Any,  # noqa: F821
                       op: Callable[[Any, Any], Any], size: int = 32,
                       bulk: bool = False,
                       elementwise: bool = False) -> Generator:
    """Binomial reduce to rank 0, binomial broadcast back."""
    total = yield from reduce_binomial(proc, value, op, root=0,
                                       size=size, bulk=bulk)
    result = yield from broadcast_binomial(proc, total, root=0,
                                           size=size, bulk=bulk)
    return result


def allreduce_ring(proc: "Proc", value: Any,  # noqa: F821
                   op: Callable[[Any, Any], Any], size: int = 32,
                   bulk: bool = False,
                   elementwise: bool = False) -> Generator:
    """Rabenseifner-style reduce-scatter + allgather ring.

    Requires a sliceable vector ``value`` and an *elementwise* ``op``
    (declared via ``elementwise=True``): each of the ``2 (P - 1)`` steps
    moves only ``1/P``-th of the payload, so bandwidth-bound allreduces
    beat the binomial tree's full-payload hops.
    """
    n = proc.n_ranks
    if n == 1:
        return value
    total = len(value)
    epoch = proc.next_epoch("coll:allreduce")
    base, extra = divmod(total, n)
    bounds = []
    lo = 0
    for c in range(n):
        hi = lo + base + (1 if c < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    per_byte = size / max(1, total)
    succ = (proc.rank + 1) % n
    pred = (proc.rank - 1) % n
    work = value.copy()
    # Phase 1: reduce-scatter.  After step s, this rank's chunk
    # (rank - s - 1) mod P carries s + 2 contributions; after P - 1
    # steps chunk (rank + 1) mod P is fully reduced here.
    for step in range(n - 1):
        send_c = (proc.rank - step) % n
        recv_c = (proc.rank - step - 1) % n
        lo, hi = bounds[send_c]
        yield from send_value(
            proc, succ, ("crs", epoch, step), work[lo:hi].copy(),
            per_byte * (hi - lo), bulk=bulk)
        got = yield from recv_value(
            proc, ("crs", epoch, step), pred,
            f"ring allreduce epoch {epoch} reduce-scatter step {step}")
        lo, hi = bounds[recv_c]
        work[lo:hi] = op(got, work[lo:hi])
    # Phase 2: allgather of the reduced chunks around the same ring.
    for step in range(n - 1):
        send_c = (proc.rank + 1 - step) % n
        recv_c = (proc.rank - step) % n
        lo, hi = bounds[send_c]
        yield from send_value(
            proc, succ, ("cag", epoch, step), work[lo:hi].copy(),
            per_byte * (hi - lo), bulk=bulk)
        got = yield from recv_value(
            proc, ("cag", epoch, step), pred,
            f"ring allreduce epoch {epoch} allgather step {step}")
        lo, hi = bounds[recv_c]
        work[lo:hi] = got
    return work


# ---------------------------------------------------------------------------
# gather
# ---------------------------------------------------------------------------

def gather_flat(proc: "Proc", value: Any, root: int = 0,  # noqa: F821
                size: int = 32, bulk: bool = False) -> Generator:
    """Every rank sends directly to the root; root returns the list."""
    n = proc.n_ranks
    if n == 1:
        return [value]
    epoch = proc.next_epoch("coll:gather")
    if proc.rank != root:
        yield from send_value(proc, root, ("cgat", epoch, proc.rank),
                              value, size, bulk=bulk)
        return None
    out: List[Any] = [None] * n
    out[root] = value
    for off in range(1, n):
        src = (root + off) % n
        out[src] = yield from recv_value(
            proc, ("cgat", epoch, src), src,
            f"flat gather epoch {epoch} from {src}")
    return out


# ---------------------------------------------------------------------------
# allgather
# ---------------------------------------------------------------------------

def allgather_ring(proc: "Proc", value: Any, size: int = 32,  # noqa: F821
                   bulk: bool = False) -> Generator:
    """P - 1 steps around a ring, each forwarding the newest block."""
    n = proc.n_ranks
    if n == 1:
        return [value]
    epoch = proc.next_epoch("coll:allgather")
    succ = (proc.rank + 1) % n
    pred = (proc.rank - 1) % n
    out: List[Any] = [None] * n
    out[proc.rank] = value
    carry = value
    for step in range(n - 1):
        yield from send_value(proc, succ, ("crag", epoch, step), carry,
                              size, bulk=bulk)
        carry = yield from recv_value(
            proc, ("crag", epoch, step), pred,
            f"ring allgather epoch {epoch} step {step}")
        out[(proc.rank - step - 1) % n] = carry
    return out


def allgather_doubling(proc: "Proc", value: Any,  # noqa: F821
                       size: int = 32, bulk: bool = False) -> Generator:
    """Recursive doubling (Bruck variant, any P): ``ceil(log2 P)``
    exchanges with block counts doubling each round."""
    n = proc.n_ranks
    if n == 1:
        return [value]
    epoch = proc.next_epoch("coll:allgather")
    # blocks[i] is the value contributed by rank (rank + i) mod P.
    blocks: List[Any] = [value]
    k = 0
    while len(blocks) < n:
        cnt = min(len(blocks), n - len(blocks))
        dst = (proc.rank - (1 << k)) % n
        src = (proc.rank + (1 << k)) % n
        yield from send_value(proc, dst, ("cagd", epoch, k),
                              blocks[:cnt], size * cnt, bulk=bulk)
        got = yield from recv_value(
            proc, ("cagd", epoch, k), src,
            f"doubling allgather epoch {epoch} round {k}")
        blocks.extend(got)
        k += 1
    return [blocks[(r - proc.rank) % n] for r in range(n)]


# ---------------------------------------------------------------------------
# alltoall (personalized)
# ---------------------------------------------------------------------------

def alltoall_flat(proc: "Proc", values: List[Any],  # noqa: F821
                  size: int = 32,
                  sizes: Optional[List[int]] = None,
                  bulk: bool = False, dense: bool = False) -> Generator:
    """One direct (possibly bulk) message per destination, bursty.

    Supports the sparse/variable-size case: a ``None`` slot sends
    nothing, ``sizes[dst]`` overrides the per-destination wire size.
    Completion is an ack wait for this rank's own sends followed by a
    barrier, after which every deposit is visible.
    """
    n = proc.n_ranks
    if n == 1:
        return [values[proc.rank]]
    epoch = proc.next_epoch("coll:alltoall")
    pending = {"count": 0}

    def acked(_payload: Any) -> None:
        pending["count"] -= 1

    dsts = []
    for off in range(1, n):
        dst = (proc.rank + off) % n
        payload = values[dst]
        if payload is None:
            continue
        nbytes = sizes[dst] if sizes is not None else size
        pending["count"] += 1
        dsts.append(dst)
        yield from send_value(proc, dst, ("ca2a", epoch, proc.rank),
                              payload, nbytes, bulk=bulk,
                              on_complete=acked)
    wait = None if not proc.am.watching else \
        ("sync", tuple(dsts),
         f"alltoall epoch {epoch}: {pending['count']} unacked send(s)")
    yield from proc.am.wait_until(lambda: pending["count"] == 0,
                                  wait=wait)
    # Everyone's deposits are complete once every rank passed its own
    # ack wait; the barrier publishes that fact.
    yield from barrier_dissemination(proc)
    box = proc.collective_box
    out: List[Any] = [None] * n
    out[proc.rank] = values[proc.rank]
    for off in range(1, n):
        src = (proc.rank + off) % n
        key = ("ca2a", epoch, src)
        if key in box:
            out[src] = box.pop(key)
    return out


def alltoall_bruck(proc: "Proc", values: List[Any],  # noqa: F821
                   size: int = 32,
                   sizes: Optional[List[int]] = None,
                   bulk: bool = False, dense: bool = False) -> Generator:
    """Bruck's log-round alltoall for small dense messages.

    ``ceil(log2 P)`` rounds, each aggregating ~P/2 blocks into one
    message: fewer, larger messages than the flat burst — the win when
    per-message cost dominates.  Requires a dense ``values`` list and a
    uniform declared ``size`` (see :func:`eligible_algorithms`).
    """
    n = proc.n_ranks
    if n == 1:
        return [values[proc.rank]]
    if len(values) != n:
        raise ValueError("alltoall needs one value slot per rank")
    epoch = proc.next_epoch("coll:alltoall")
    rank = proc.rank
    # Local rotation: blocks[j] is destined for rank (rank + j) mod P;
    # it travels 2^k hops for every set bit k of j.
    blocks: List[Any] = [values[(rank + j) % n] for j in range(n)]
    k = 0
    while (1 << k) < n:
        bit = 1 << k
        dst = (rank + bit) % n
        src = (rank - bit) % n
        moving = [(j, blocks[j]) for j in range(n) if j & bit]
        yield from send_value(proc, dst, ("ca2ab", epoch, k), moving,
                              size * len(moving), bulk=bulk)
        got = yield from recv_value(
            proc, ("ca2ab", epoch, k), src,
            f"bruck alltoall epoch {epoch} round {k}")
        for j, item in got:
            blocks[j] = item
        k += 1
    # blocks[j] now holds the value addressed to us by rank (rank - j).
    return [blocks[(rank - src) % n] for src in range(n)]


# ---------------------------------------------------------------------------
# Registry and eligibility
# ---------------------------------------------------------------------------

REGISTRY: Dict[str, Dict[str, Callable]] = {
    "barrier": {"dissemination": barrier_dissemination},
    "broadcast": {"binomial": broadcast_binomial,
                  "chain": broadcast_chain},
    "allreduce": {"binomial": allreduce_binomial, "ring": allreduce_ring},
    "gather": {"flat": gather_flat},
    "allgather": {"ring": allgather_ring, "doubling": allgather_doubling},
    "alltoall": {"flat": alltoall_flat, "bruck": alltoall_bruck},
}


def registry() -> Dict[str, Dict[str, Callable]]:
    """The full primitive -> {algorithm name -> implementation} map."""
    return REGISTRY


def algorithms_for(primitive: str) -> Tuple[str, ...]:
    """Registered algorithm names for ``primitive``, registry order."""
    if primitive not in REGISTRY:
        raise KeyError(f"unknown collective primitive {primitive!r}")
    return tuple(REGISTRY[primitive])


def get_algorithm(primitive: str, algo: str) -> Callable:
    """The implementation registered as ``primitive``/``algo``."""
    table = REGISTRY.get(primitive)
    if table is None:
        raise KeyError(f"unknown collective primitive {primitive!r}")
    if algo not in table:
        raise KeyError(
            f"unknown {primitive} algorithm {algo!r}; "
            f"registered: {', '.join(table)}")
    return table[algo]


def eligible_algorithms(primitive: str, elementwise: bool = False,
                        dense: bool = False,
                        uniform: bool = True) -> Tuple[str, ...]:
    """Algorithm names whose structural requirements the call meets.

    The traits are *declared* by the caller (identically on every rank,
    SPMD order) rather than inferred from one rank's arguments, so every
    rank restricts to the same candidate set:

    * ``elementwise`` — the reduction ``op`` acts elementwise on a
      sliceable vector value (enables ``allreduce``/``ring``).
    * ``dense`` — every rank supplies a value for every destination
      (required by ``alltoall``/``bruck``).
    * ``uniform`` — no per-destination size overrides (also required by
      ``alltoall``/``bruck``).
    """
    names = []
    for algo in algorithms_for(primitive):
        if primitive == "allreduce" and algo == "ring" \
                and not elementwise:
            continue
        if primitive == "alltoall" and algo == "bruck" \
                and not (dense and uniform):
            continue
        names.append(algo)
    return tuple(names)


def pick(proc: "Proc", primitive: str, nbytes: float,  # noqa: F821
         algo: Optional[str], elementwise: bool = False,
         dense: bool = False, uniform: bool = True) -> Callable:
    """The implementation ``proc``'s ``primitive`` call runs.

    The declared traits (see :func:`eligible_algorithms`) narrow the
    registry to the eligible candidates.  An explicit ``algo`` must be
    one of them; otherwise the call runs the registry default, or the
    first eligible candidate when the default is not eligible.  Every
    rank declares the same traits, so all ranks agree on the schedule
    without communicating.  The choice is counted on ``proc`` (calls and
    the call's ``nbytes`` under ``"kind/algo"``) and fired on the
    ``collective`` hook before the call sends anything.
    """
    candidates = eligible_algorithms(
        primitive, elementwise=elementwise, dense=dense, uniform=uniform)
    if algo is not None:
        get_algorithm(primitive, algo)  # validate the name
        if algo not in candidates:
            raise ValueError(
                f"{primitive} algorithm {algo!r} is not eligible for "
                f"this call (elementwise={elementwise}, dense={dense}, "
                f"uniform={uniform})")
    else:
        algo = DEFAULT_ALGORITHMS[primitive]
        if algo not in candidates:
            algo = candidates[0]
    key, nbytes = f"{primitive}/{algo}", int(nbytes)
    proc.collective_calls[key] += 1
    proc.collective_bytes[key] += nbytes
    hook = proc.probes.collective
    if hook is not None:
        hook(primitive, algo, proc.rank, nbytes)
    return REGISTRY[primitive][algo]
