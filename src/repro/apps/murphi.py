"""Parallel Murφ: explicit-state protocol verification.

Stern & Dill's parallelisation [42]: the reachable state space is
explored in parallel, with a hash function mapping every state to an
*owning* processor.  When a processor discovers a successor state it
sends the state to its owner; the owner checks its seen-set and, for new
states, enqueues them for expansion (checking them against the assertion
list -- local compute).  Outgoing states are batched per destination and
shipped as bulk messages (the paper's Murφ is ~50% bulk), with
stragglers flushed as short messages.

The protocol itself is a deterministic synthetic transition system (our
stand-in for the SCI protocol model, which is not available): states are
integers whose successors are derived from a mixing hash, giving an
irregular reachable graph of configurable size.  The protocol is correct,
so the assertion check (charged per state) finds nothing; correctness is
checked against a sequential BFS of the same system.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, List, Set

from repro.am.layer import HandlerTable
from repro.apps.base import Application
from repro.gas.runtime import Proc

__all__ = ["Murphi", "TransitionSystem"]

#: Wire bytes per state descriptor (the paper's protocol states are a
#: few dozen bytes).
STATE_BYTES = 16


class TransitionSystem:
    """A deterministic synthetic protocol: the successor relation.

    ``state_space`` bounds the universe; roughly half of it is reachable
    from state 0 for the default branching.
    """

    def __init__(self, state_space: int, branching: int,
                 seed: int) -> None:
        if state_space < 2 or branching < 1:
            raise ValueError("state_space >= 2 and branching >= 1 required")
        self.state_space = state_space
        self.branching = branching
        self.seed = seed

    def successors(self, state: int) -> List[int]:
        """The deterministic successor states of ``state``."""
        results = []
        for rule in range(self.branching):
            mixed = (state * 2654435761 + rule * 40503
                     + self.seed * 97) & 0xFFFFFFFF
            mixed ^= mixed >> 13
            mixed = (mixed * 2246822519) & 0xFFFFFFFF
            mixed ^= mixed >> 16
            results.append(mixed % self.state_space)
        return results

    def owner(self, state: int, n_nodes: int) -> int:
        """The processor owning ``state`` (Stern-Dill hash partition)."""
        return ((state * 0x9E3779B1) & 0xFFFFFFFF) % n_nodes

    def reachable_count(self, start: int = 0) -> int:
        """Sequential BFS reference: number of reachable states."""
        seen = {start}
        frontier = deque([start])
        while frontier:
            state = frontier.popleft()
            for successor in self.successors(state):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return len(seen)


class Murphi(Application):
    """The parallel verifier.

    Parameters
    ----------
    state_space:
        Universe size of the synthetic protocol.
    """

    name = "Murphi"

    #: Rules (successors) per state.
    branching = 3
    #: States per bulk message; smaller leftovers go as short messages.
    batch_size = 3

    def __init__(self, state_space: int = 1500) -> None:
        self.state_space = state_space
        self._system: TransitionSystem = TransitionSystem(
            state_space, self.branching, seed=0)

    @classmethod
    def scaled(cls, scale: float = 1.0) -> "Murphi":
        return cls(state_space=max(200, int(1500 * scale)))

    # -- lifecycle ----------------------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        self._system = TransitionSystem(
            self.state_space, self.branching, seed=seed)

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("murphi_states", _states_handler)

    def setup_rank(self, proc: Proc) -> Generator:
        queue: deque = deque()
        seen: Set[int] = set()
        if self._system.owner(0, proc.n_ranks) == proc.rank:
            seen.add(0)
            queue.append(0)
        proc.state["murphi"] = {
            "queue": queue,
            "seen": seen,
            "processed": 0,
        }
        return
        yield  # pragma: no cover

    # -- the timed program --------------------------------------------------------
    def run_rank(self, proc: Proc) -> Generator:
        state = proc.state["murphi"]
        system = self._system
        queue: deque = state["queue"]
        outboxes = {rank: [] for rank in range(proc.n_ranks)
                    if rank != proc.rank}

        while True:
            while queue:
                current = queue.popleft()
                state["processed"] += 1
                # Expand: apply every rule, check the assertion list.
                yield from proc.compute(proc.cost.state_hashes(1))
                for successor in system.successors(current):
                    owner = system.owner(successor, proc.n_ranks)
                    if owner == proc.rank:
                        if successor not in state["seen"]:
                            state["seen"].add(successor)
                            queue.append(successor)
                    else:
                        outbox = outboxes[owner]
                        outbox.append(successor)
                        if len(outbox) >= self.batch_size:
                            yield from proc.am.bulk_store(
                                owner, "murphi_states", list(outbox),
                                STATE_BYTES * len(outbox))
                            outbox.clear()
                # Service incoming states between expansions.
                yield from proc.poll()
            # Queue empty: flush leftovers — still batched per
            # destination (bulk for 2+, short for singletons).
            for owner, outbox in outboxes.items():
                if len(outbox) >= 2:
                    yield from proc.am.bulk_store(
                        owner, "murphi_states", list(outbox),
                        STATE_BYTES * len(outbox))
                elif outbox:
                    yield from proc.am.send_request(
                        owner, "murphi_states", list(outbox),
                        size=STATE_BYTES)
                outbox.clear()
            yield from proc.am.drain()
            yield from proc.barrier()
            # After the barrier every in-flight state has been deposited
            # (acks imply handler execution), so queue lengths decide
            # global termination.
            pending = yield from proc.allreduce(
                len(queue), lambda a, b: a + b)
            if pending == 0:
                return

    # -- results --------------------------------------------------------------------
    def finalize(self, procs: List[Proc]) -> dict:
        explored = sum(p.state["murphi"]["processed"] for p in procs)
        distinct = sum(len(p.state["murphi"]["seen"]) for p in procs)
        expected = self._system.reachable_count()
        if explored != expected or distinct != expected:
            raise AssertionError(
                f"Murphi explored {explored} states "
                f"({distinct} marked seen), reference BFS says {expected}")
        return {"explored": explored}


def _states_handler(am, packet) -> None:
    """Owner-side dedup and enqueue of received states."""
    state = am.host.state["murphi"]
    for incoming in packet.payload:
        if incoming not in state["seen"]:
            state["seen"].add(incoming)
            state["queue"].append(incoming)
