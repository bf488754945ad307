"""Collective operations built from Active Messages.

* barrier -- dissemination algorithm: ``ceil(log2 P)`` rounds, each rank
  sending one short message per round; all ranks leave within one round
  trip of each other.
* broadcast / reduce -- binomial trees.
* allreduce -- reduce to rank 0 followed by broadcast (2·ceil(log2 P)
  message rounds; every rank gets the reduced value).

Every collective instance is tagged with a per-type epoch counter that
all ranks advance identically (SPMD order), so back-to-back collectives
never confuse each other's messages.

These are the *legacy* single-schedule primitives — the fixed-policy
defaults of :mod:`repro.coll`, which registers them alongside
alternative algorithms and re-exports them as ``legacy_barrier`` /
``legacy_broadcast`` / ``legacy_reduce`` / ``legacy_allreduce``.  New
call sites should go through :mod:`repro.coll` (or the ``Proc``
methods, which dispatch there).
"""

from __future__ import annotations

from typing import Any, Callable, Generator

__all__ = ["barrier", "broadcast", "reduce", "allreduce"]


def _rounds(n_ranks: int) -> int:
    rounds = 0
    while (1 << rounds) < n_ranks:
        rounds += 1
    return rounds


def barrier(proc: "Proc") -> Generator:  # noqa: F821
    """Dissemination barrier across all ranks."""
    n = proc.n_ranks
    if n > 1:
        epoch = proc.next_epoch("barrier")
        for rnd in range(_rounds(n)):
            partner = (proc.rank + (1 << rnd)) % n
            token = (epoch, rnd)
            yield from proc.am.send_request(
                partner, "_gas_barrier", token)
            wait = None if not proc.am.watching else \
                ("barrier", ((proc.rank - (1 << rnd)) % n,),
                 f"barrier epoch {epoch} round {rnd}")
            yield from proc.am.wait_until(
                lambda t=token: t in proc.barrier_tokens, wait=wait)
            proc.barrier_tokens.discard(token)
    hook = proc.probes.barrier
    if hook is not None:
        hook(proc.rank)


def broadcast(proc: "Proc", value: Any = None, root: int = 0,
              size: int = 32, bulk: bool = False) -> Generator:  # noqa: F821
    """Binomial-tree broadcast; returns the broadcast value on all ranks.

    ``size`` is the simulated wire size of the value; with ``bulk=True``
    the value moves as a bulk transfer (for splitter tables etc.).
    """
    n = proc.n_ranks
    epoch = proc.next_epoch("bcast")
    if n == 1:
        return value
    vrank = (proc.rank - root) % n
    key = ("bcast", epoch)
    if vrank != 0:
        wait = None
        if proc.am.watching:
            # The binomial-tree parent: clear the top set bit of vrank.
            parent_v = vrank - (1 << (vrank.bit_length() - 1))
            parent = (parent_v + root) % n
            wait = ("collective", (parent,), f"bcast epoch {epoch}")
        yield from proc.am.wait_until(
            lambda: key in proc.collective_box, wait=wait)
        value = proc.collective_box.pop(key)
    # Forward down the binomial tree: the child spanning the largest
    # subtree first, so deep subtrees start as early as possible.
    top = _rounds(n)
    for k in reversed(range(top)):
        peer = vrank + (1 << k)
        if vrank < (1 << k) and peer < n:
            dst = (peer + root) % n
            if bulk:
                yield from proc.am.bulk_store(
                    dst, "_gas_bcast", (epoch, value), max(1, size))
            else:
                yield from proc.am.send_request(
                    dst, "_gas_bcast", (epoch, value), size=size)
    return value


def reduce(proc: "Proc", value: Any,  # noqa: F821
           op: Callable[[Any, Any], Any], root: int = 0,
           size: int = 32) -> Generator:
    """Binomial-tree reduction; the result lands on ``root`` (others get
    ``None``)."""
    n = proc.n_ranks
    epoch = proc.next_epoch("reduce")
    if n == 1:
        return value
    vrank = (proc.rank - root) % n
    partial = value
    for k in range(_rounds(n)):
        bit = 1 << k
        if vrank & bit:
            dst = ((vrank - bit) + root) % n
            yield from proc.am.send_request(
                dst, "_gas_reduce", (epoch, k, partial), size=size)
            return None
        peer = vrank + bit
        if peer < n:
            key = ("reduce", epoch, k)
            wait = None if not proc.am.watching else \
                ("collective", ((peer + root) % n,),
                 f"reduce epoch {epoch} round {k}")
            yield from proc.am.wait_until(
                lambda kk=key: kk in proc.collective_box, wait=wait)
            partial = op(partial, proc.collective_box.pop(key))
    return partial


def allreduce(proc: "Proc", value: Any,  # noqa: F821
              op: Callable[[Any, Any], Any], size: int = 32) -> Generator:
    """Reduce to rank 0, then broadcast the result to everyone."""
    total = yield from reduce(proc, value, op, root=0, size=size)
    result = yield from broadcast(proc, total, root=0, size=size)
    return result
