"""A workstation node: host processor cost model, memory, disks.

The host processor is not modelled cycle-by-cycle; application *compute*
phases charge simulated microseconds through a :class:`CostModel` whose
constants approximate the paper's 167 MHz UltraSPARC 170.  Communication
costs are never charged here — they are produced by the AM/NIC/wire
pipeline so that the LogGP dials act on them exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.cluster.disk import Disk
from repro.sim import Simulator

__all__ = ["CostModel", "Node", "DISKS_PER_NODE"]


@dataclass(frozen=True)
class CostModel:
    """Host CPU cost constants, in microseconds.

    ``cpu_scale`` multiplies every cost — ``2.0`` emulates a processor
    half as fast, which is how the paper's closing trade-off (processor
    speed vs communication performance) can be explored.  It is the one
    field; the per-operation costs are class constants.
    """

    #: Global multiplier on all compute costs.
    cpu_scale: float = 1.0

    #: One "simple operation" — an integer op plus its share of loads and
    #: stores.  0.02 µs ≈ 50 M simple ops/s, a realistic sustained rate
    #: for a 167 MHz UltraSPARC running pointer-heavy C.
    us_per_op = 0.02
    #: Copying one byte through the memory system (bcopy-style).
    us_per_byte_copied = 0.005
    #: One force interaction in the N-body kernel: ~30 flops with a
    #: sqrt and cache-missy tree-node loads (SPLASH-2 Barnes spends a
    #: few hundred cycles per interaction on machines of this era).
    us_per_flop_interaction = 2.0
    #: Expanding one protocol state (Murphi): firing every rule,
    #: canonicalising, hashing, probing the state table — the paper's
    #: SCI model spends on the order of a millisecond per state; our
    #: synthetic protocol is lighter.
    us_per_state_hash = 200.0
    #: Local work on one graph edge (Connect union-find step, EM3D
    #: gather term): irregular pointer chasing, ~150 cycles.
    us_per_edge = 1.0
    #: Local work on one sort key per pass (histogram/rank/permute with
    #: random access): Radb's measured ~7.5 µs per key across its ~6
    #: key-passes gives ~1.2 µs per key-pass on the UltraSPARC 170.
    us_per_key = 1.0

    def __post_init__(self) -> None:
        if self.cpu_scale < 0:
            raise ValueError("cpu_scale must be >= 0")

    def scaled(self, factor: float) -> "CostModel":
        """A cost model for a CPU ``factor``× slower than this one."""
        return replace(self, cpu_scale=self.cpu_scale * factor)

    # -- helpers used by the applications ---------------------------------
    def ops(self, count: float) -> float:
        """Microseconds for ``count`` simple operations."""
        return count * self.us_per_op * self.cpu_scale

    def copy_bytes(self, nbytes: float) -> float:
        """Microseconds to copy ``nbytes`` through memory."""
        return nbytes * self.us_per_byte_copied * self.cpu_scale

    def interactions(self, count: float) -> float:
        """Microseconds for ``count`` N-body force interactions."""
        return count * self.us_per_flop_interaction * self.cpu_scale

    def state_hashes(self, count: float) -> float:
        """Microseconds to hash/compare ``count`` protocol states."""
        return count * self.us_per_state_hash * self.cpu_scale

    def edges(self, count: float) -> float:
        """Microseconds of per-edge graph work."""
        return count * self.us_per_edge * self.cpu_scale

    def keys(self, count: float) -> float:
        """Microseconds of per-key sorting work (one pass)."""
        return count * self.us_per_key * self.cpu_scale


#: Spindles per node: NOW-sort reads from one and writes to the other.
DISKS_PER_NODE = 2


class Node:
    """One workstation of the cluster."""

    def __init__(self, sim: Simulator, node_id: int,
                 cost: CostModel) -> None:
        self.sim = sim
        self.node_id = node_id
        self.cost = cost
        self.disks: List[Disk] = [
            Disk(sim, name=f"disk{d}[{node_id}]")
            for d in range(DISKS_PER_NODE)]
        #: Total microseconds this node's host CPU spent in compute()
        #: (diagnostic; communication overhead is tracked by the AM layer).
        self.compute_us = 0.0

    def disk(self, index: int) -> Disk:
        """The ``index``-th spindle of this node."""
        return self.disks[index]
