"""Distributed locks with try/retry semantics.

Split-C/AM blocking locks are implemented as a *test-and-set at the home
node*: the requester sends a short request; the home's handler either
grants the lock or denies it, and a denied requester simply retries.
Under high overhead every retry costs ``2 o`` at the requester and ``2 o``
at the home node, so contended homes saturate servicing futile retries --
the mechanism behind Barnes' livelock in Section 5.1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

__all__ = ["DistributedLock", "acquire", "release"]


@dataclass(frozen=True)
class DistributedLock:
    """A named lock homed on one rank.

    All ranks referring to the same ``(home_rank, lock_id)`` pair contend
    for the same lock.
    """

    home_rank: int
    lock_id: int


def acquire(proc: "Proc", lock: DistributedLock,  # noqa: F821
            retry_backoff_us: float = 1.0) -> Generator:
    """Blocking acquire: try, and on denial retry until granted.

    Each failed attempt is recorded (the paper instruments exactly this
    to diagnose the livelock) and checked against the run's livelock
    limit.
    """
    while True:
        if lock.home_rank == proc.rank:
            # Local test-and-set: atomic because nothing yields inside.
            held = proc.lock_table.get(lock.lock_id, False)
            if not held:
                proc.lock_table[lock.lock_id] = True
            granted = not held
            yield from proc.compute(proc.cost.ops(5))
        else:
            granted = yield from proc.am.rpc(
                lock.home_rank, "_gas_lock_try", lock.lock_id)
        if granted:
            hook = proc.probes.lock_acquired
            if hook is not None:
                hook(proc.rank, lock)
            return
        hook = proc.probes.lock_wait
        if hook is not None:
            # Report the pursuit before the livelock budget can trip,
            # so a lock-cycle diagnosis sees this rank's edge.
            hook(proc.rank, lock)
        proc.note_failed_lock()
        if retry_backoff_us > 0:
            yield from proc.compute(retry_backoff_us)
        # Service incoming traffic between attempts; in particular a
        # spinner on a *local* lock must still process the release
        # message (and grant/deny others) or the whole cluster wedges.
        yield from proc.poll()


def release(proc: "Proc", lock: DistributedLock) -> Generator:
    """Release a held lock (fire-and-forget to the home node)."""
    hook = proc.probes.lock_released
    if hook is not None:
        hook(proc.rank, lock)
    if lock.home_rank == proc.rank:
        if not proc.lock_table.get(lock.lock_id, False):
            raise RuntimeError(
                f"rank {proc.rank} released lock {lock.lock_id} "
                "it does not hold")
        proc.lock_table[lock.lock_id] = False
        yield from proc.compute(proc.cost.ops(5))
        return
    yield from proc.am.send_request(
        lock.home_rank, "_gas_lock_release", lock.lock_id)
