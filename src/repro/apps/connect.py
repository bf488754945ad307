"""Connected components on a random 2-D mesh (the paper's ``Connect``).

Following Lumetta et al. [33]: the mesh (each lattice edge present with
probability ``connectivity``) is spread across processors as horizontal
strips.  Each processor first collapses its local subgraph with
sequential union-find — pure local compute.  The global phase then
repeatedly *hooks* components across strip boundaries: for each boundary
edge the owning processor chases both endpoints' representatives through
the distributed ``parent`` array (blocking remote reads — Connect is 67%
reads in Table 4) and writes the larger root's parent to the smaller
root (a monotone ``min`` write, so races cannot regress).  Rounds repeat
until a global reduction reports no changes.

Communication is light relative to the local work — the paper notes the
communication/computation ratio is set by the graph size — and irregular
(hot rows produce the blotchy Figure 4h).

``finalize`` roots the gathered ``parent`` array by pointer jumping and
checks the partition it induces against an independent labelling of
the same edges, computed on whole arrays (min-label propagation)."""

from __future__ import annotations

from typing import Generator, List, Tuple

import numpy as np

from repro.apps.base import Application
from repro.gas.runtime import Proc

__all__ = ["Connect"]


class Connect(Application):
    """Parallel connected components.

    Parameters
    ----------
    rows_per_proc, cols:
        The mesh is ``(rows_per_proc * P) x cols``.
    connectivity:
        Probability each lattice edge exists (paper: 30%).
    """

    name = "Connect"

    def __init__(self, rows_per_proc: int = 192, cols: int = 64,
                 connectivity: float = 0.3) -> None:
        if rows_per_proc < 1 or cols < 1:
            raise ValueError("rows_per_proc and cols must be >= 1")
        if not 0.0 <= connectivity <= 1.0:
            raise ValueError("connectivity must be within [0, 1]")
        self.rows_per_proc = rows_per_proc
        self.cols = cols
        self.connectivity = connectivity
        #: The mesh's edges ``(u, v)``, ``u < v``, sorted by ``u``.
        self._edges = np.empty((0, 2), dtype=np.int64)
        #: Per rank: (edges inside its strip, cross-strip edges it
        #: drives), each in edge order.
        self._rank_edges: List[Tuple[np.ndarray, np.ndarray]] = []
        self._n_vertices = 0
        self._n_nodes = 0

    @classmethod
    def scaled(cls, scale: float = 1.0) -> "Connect":
        # Rows scale (local work, like the paper's 4M-node graphs);
        # the column count — and with it the boundary-edge traffic —
        # stays fixed, preserving Connect's high compute-to-
        # communication ratio at any scale.
        return cls(rows_per_proc=max(4, int(192 * scale)))

    # -- input ------------------------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        rng = np.random.RandomState(seed + 0xC0)
        self._n_nodes = n_nodes
        rows = self.rows_per_proc * n_nodes
        self._n_vertices = rows * self.cols
        # Vectorised lattice-edge sampling (right edges, then down
        # edges), matching the original per-cell loop's draw order
        # row-major with the right edge drawn before the down edge.
        vertex = np.arange(rows * self.cols).reshape(rows, self.cols)
        draws = rng.random_sample((rows, self.cols, 2))
        right = (draws[:, :, 0] < self.connectivity)
        right[:, -1] = False
        down = (draws[:, :, 1] < self.connectivity)
        down[-1, :] = False
        right_edges = np.stack(
            [vertex[right], vertex[right] + 1], axis=1)
        down_edges = np.stack(
            [vertex[down], vertex[down] + self.cols], axis=1)
        merged = np.concatenate([right_edges, down_edges])
        # Sort by source vertex so edge order stays row-major.
        self._edges = merged[np.argsort(merged[:, 0], kind="stable")]
        # Every edge goes, in edge order, to the rank owning its source
        # (u < v, so the upper strip's owner drives a cross-strip edge).
        strip = self.rows_per_proc * self.cols
        owner = self._edges // strip
        inside = owner[:, 0] == owner[:, 1]
        bounds = np.searchsorted(owner[:, 0], np.arange(n_nodes + 1))
        self._rank_edges = [
            (self._edges[lo:hi][inside[lo:hi]],
             self._edges[lo:hi][~inside[lo:hi]])
            for lo, hi in zip(bounds[:-1], bounds[1:])]

    def setup_rank(self, proc: Proc) -> Generator:
        parent = proc.allocate(self._n_vertices, name="cc_parent",
                               item_bytes=4)
        local_edges, boundary_edges = self._rank_edges[proc.rank]
        proc.state["connect"] = {
            "parent": parent,
            "local_edges": local_edges,
            "boundary_edges": boundary_edges,
        }
        return
        yield  # pragma: no cover

    # -- the timed program ------------------------------------------------------
    def run_rank(self, proc: Proc) -> Generator:
        state = proc.state["connect"]
        parent = state["parent"]
        local = proc.local(parent)
        base = parent.local_start(proc.rank)

        # Phase 1: local union-find collapses in-strip components.
        roots = _local_union_find(
            base, len(local), state["local_edges"].tolist())
        local[:] = roots
        yield from proc.compute(proc.cost.edges(
            len(state["local_edges"]) + len(local)))
        yield from proc.barrier()

        # Phase 2: global merge rounds with min-hooking.
        boundary_edges = state["boundary_edges"].tolist()
        while True:
            changed = 0
            for u, v in boundary_edges:
                root_u = yield from self._find(proc, parent, u)
                root_v = yield from self._find(proc, parent, v)
                if root_u != root_v:
                    high, low = max(root_u, root_v), min(root_u, root_v)
                    yield from proc.write(parent, high, low, mode="min")
                    changed += 1
            yield from proc.sync()
            total = yield from proc.allreduce(changed, lambda a, b: a + b)
            if total == 0:
                break

    def _find(self, proc: Proc, parent, vertex: int) -> Generator:
        """Chase parent pointers (remote blocking reads) to the root."""
        current = vertex
        while True:
            value = yield from proc.read(parent, current)
            value = int(value)
            if value == current:
                return current
            current = value

    # -- results -----------------------------------------------------------------
    def finalize(self, procs: List[Proc]) -> np.ndarray:
        """Each vertex's root in the gathered ``parent`` array."""
        parent_meta = procs[0].state["connect"]["parent"]
        labels = _pointer_jump(np.concatenate(
            [proc.local(parent_meta) for proc in procs]))
        self._validate(labels)
        return labels

    def _validate(self, labels: np.ndarray) -> None:
        """Check against an independent labelling over the same edges."""
        reference = _components(self._n_vertices, self._edges)
        if labels.shape != reference.shape:
            raise AssertionError(
                f"{labels.shape} labels for {self._n_vertices} vertices")
        # Two labelings induce the same partition iff each label on one
        # side meets exactly one label on the other: as many distinct
        # (mine, reference) pairs as distinct labels on either side.
        pairs = _distinct(labels * self._n_vertices + reference)
        if pairs != _distinct(labels):
            raise AssertionError(
                "parallel run merged components the reference keeps apart")
        if pairs != _distinct(reference):
            raise AssertionError(
                "parallel run split a component the reference connects")


def _distinct(values: np.ndarray) -> int:
    """How many distinct values the non-empty ``values`` holds (a sort
    is several times faster here than ``np.unique``'s hash table)."""
    return 1 + int(np.count_nonzero(np.diff(np.sort(values))))


def _pointer_jump(parent: np.ndarray) -> np.ndarray:
    """Each vertex's root in a forest of ``parent`` pointers."""
    while True:
        hop = parent[parent]
        if np.array_equal(hop, parent):
            return parent
        parent = hop


def _components(count: int, edges: np.ndarray) -> np.ndarray:
    """Each vertex's minimum-id component member: min-label propagation
    over ``edges`` with pointer jumping, until no label moves."""
    u, v = edges[:, 0], edges[:, 1]
    labels = np.arange(count)
    while True:
        low = np.minimum(labels[u], labels[v])
        hooked = labels.copy()
        # Both endpoints and both of their labels take the lower label;
        # a label only ever falls to a member of its own component.
        for side in (u, v, labels[u], labels[v]):
            np.minimum.at(hooked, side, low)
        hooked = _pointer_jump(hooked)
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _local_union_find(base: int, count: int,
                      edges: List[List[int]]) -> np.ndarray:
    """Sequential union-find over vertices [base, base+count); returns
    each vertex's minimum-id representative (global ids)."""
    parent = list(range(count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u - base), find(v - base)
        if ru != rv:
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return np.asarray([find(i) + base for i in range(count)],
                      dtype=np.int64)
