"""EM3D: electromagnetic wave propagation on an irregular bipartite graph.

The kernel from Culler et al.'s Split-C paper [13].  An irregular
bipartite graph of E (electric) and H (magnetic) nodes is spread over the
processors; each time step computes every E value as a weighted sum of
its H neighbours, then every H value from its E neighbours.

Two complementary variants, as in the paper:

* ``write`` -- remote dependencies are *pushed*: the graph is augmented
  with boundary (ghost) nodes, and after computing its values each
  processor pipelines writes of the cross-edge values into the
  consumers' ghost slots, then barriers.  A classic bulk-synchronous
  pattern: bursty writes, tolerant of latency.
* ``read`` -- remote dependencies are *pulled* with simple blocking
  reads, one per cross edge, with no ghost nodes: the paper's worst-case
  latency-bound application (97% reads in Table 4).

Graph locality (``pct_remote`` of a node's edges leave the processor,
biased to the neighbouring processor) produces the dark diagonal swath
of Figures 4b/4c.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.apps.base import Application
from repro.gas.runtime import Proc

__all__ = ["EM3D"]


class EM3D(Application):
    """The EM3D kernel.

    Parameters
    ----------
    nodes_per_proc:
        Graph nodes of *each* kind (E and H) per processor.
    degree:
        In-edges per node.
    pct_remote:
        Fraction of edges whose source lives on another processor
        (paper input: 40%).
    steps:
        Time steps to simulate.
    variant:
        ``"write"`` or ``"read"``.
    """

    def __init__(self, nodes_per_proc: int = 24, degree: int = 4,
                 pct_remote: float = 0.4, steps: int = 6,
                 variant: str = "write") -> None:
        if variant not in ("write", "read"):
            raise ValueError(f"unknown EM3D variant {variant!r}")
        if nodes_per_proc < 1 or degree < 1 or steps < 1:
            raise ValueError("nodes_per_proc, degree, steps must be >= 1")
        if not 0.0 <= pct_remote <= 1.0:
            raise ValueError("pct_remote must be within [0, 1]")
        self.nodes_per_proc = nodes_per_proc
        self.degree = degree
        self.pct_remote = pct_remote
        self.steps = steps
        self.variant = variant
        self._edges: Dict[str, List[List[Tuple[int, float]]]] = {}
        #: Per rank, the write variant's push lists (see ``configure``).
        self._push: List[Dict[str, Dict[int, List[int]]]] = []
        self._n_nodes = 0
        self._seed = 0
        #: Reseeded per rank by ``_initial_values``.
        self._rng: Optional[np.random.RandomState] = None

    name = property(lambda self: f"EM3D({self.variant})")  # type: ignore

    @classmethod
    def scaled(cls, scale: float = 1.0, variant: str = "write") -> "EM3D":
        return cls(nodes_per_proc=max(8, int(24 * scale)), variant=variant)

    # -- input construction ----------------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        """Build the bipartite graph: for each consumer node, ``degree``
        source nodes of the other kind, mostly local, remote ones biased
        to adjacent processors (the diagonal swath of Figure 4)."""
        self._n_nodes = n_nodes
        self._seed = seed
        self._rng = np.random.RandomState(seed)
        rng = random.Random(f"em3d:{seed}")
        total = n_nodes * self.nodes_per_proc

        def build_side() -> List[List[Tuple[int, float]]]:
            edges: List[List[Tuple[int, float]]] = []
            for consumer in range(total):
                proc = consumer // self.nodes_per_proc
                sources = []
                for _ in range(self.degree):
                    if rng.random() < self.pct_remote and n_nodes > 1:
                        # Remote: prefer the ring neighbours.
                        offset = rng.choice([-1, 1, -1, 1, -2, 2])
                        src_proc = (proc + offset) % n_nodes
                    else:
                        src_proc = proc
                    src = (src_proc * self.nodes_per_proc
                           + rng.randrange(self.nodes_per_proc))
                    weight = rng.uniform(0.1, 1.0)
                    sources.append((src, weight))
                edges.append(sources)
            return edges

        # e_edges[i]: sources (H nodes) feeding E node i, and vice versa.
        self._edges = {"e": build_side(), "h": build_side()}

        # The write variant's push lists: per rank, which of its nodes
        # feed remote consumers, and the consumers' processors in the
        # order the consumers are met.  ``_edges[k]`` lists the sources
        # feeding consumers of kind ``k``; those sources are of the
        # *other* kind, which is how the push lists are keyed.
        self._push = [{"e": {}, "h": {}} for _ in range(n_nodes)]
        for consumer_kind, source_kind in (("e", "h"), ("h", "e")):
            for consumer, sources in enumerate(self._edges[consumer_kind]):
                consumer_proc = consumer // self.nodes_per_proc
                for src, _w in sources:
                    src_proc = src // self.nodes_per_proc
                    if src_proc == consumer_proc:
                        continue
                    targets = self._push[src_proc][source_kind].setdefault(
                        src, [])
                    if consumer_proc not in targets:
                        targets.append(consumer_proc)

    def _initial_values(self, rank: int) -> Tuple[np.ndarray, np.ndarray]:
        """The deterministic per-rank initial (E, H) values, a function
        of both the run seed and the rank.  One generator reseeded per
        rank draws what a fresh ``RandomState`` of that seed would, at
        a hundredth of the cost of building one."""
        rng = self._rng
        rng.seed((self._seed * 1_000_003 + rank + 17) % (2 ** 32))
        e_part = rng.uniform(-1, 1, self.nodes_per_proc)
        h_part = rng.uniform(-1, 1, self.nodes_per_proc)
        return e_part, h_part

    def setup_rank(self, proc: Proc) -> Generator:
        total = self._n_nodes * self.nodes_per_proc
        e_vals = proc.allocate(total, name="em3d_e", item_bytes=8,
                               dtype="float64")
        h_vals = proc.allocate(total, name="em3d_h", item_bytes=8,
                               dtype="float64")
        e_part, h_part = self._initial_values(proc.rank)
        proc.local(e_vals)[:] = e_part
        proc.local(h_vals)[:] = h_part

        lo = proc.rank * self.nodes_per_proc
        hi = lo + self.nodes_per_proc
        my_consumers = {
            kind: [(node, self._edges[kind][node]) for node
                   in range(lo, hi)]
            for kind in ("e", "h")
        }
        # The write variant's ghost tables: a value cache per remote
        # source node, filled by the pushes of its owner.
        proc.state["em3d"] = {
            "arrays": {"e": e_vals, "h": h_vals},
            "consumers": my_consumers,
            "push": self._push[proc.rank],
            "ghosts": {"e": {}, "h": {}},
        }
        return
        yield  # pragma: no cover

    def register_handlers(self, table) -> None:
        table.register("em3d_ghost", _ghost_handler)

    # -- the timed program ---------------------------------------------------------
    def run_rank(self, proc: Proc) -> Generator:
        for _step in range(self.steps):
            # E from H, then H from E -- each a half step.
            yield from self._half_step(proc, consumer_kind="e",
                                       source_kind="h")
            yield from self._half_step(proc, consumer_kind="h",
                                       source_kind="e")

    def _half_step(self, proc: Proc, consumer_kind: str,
                   source_kind: str) -> Generator:
        state = proc.state["em3d"]
        arrays = state["arrays"]
        if self.variant == "write":
            yield from self._push_ghosts(proc, state, source_kind)
            yield from proc.barrier()
        source_array = arrays[source_kind]
        consumer_array = arrays[consumer_kind]
        lo = proc.rank * self.nodes_per_proc
        consumer_local = proc.local(consumer_array)
        source_local = proc.local(source_array)
        ghosts = state["ghosts"][source_kind]

        for consumer, sources in state["consumers"][consumer_kind]:
            acc = 0.0
            for src, weight in sources:
                src_proc = src // self.nodes_per_proc
                if src_proc == proc.rank:
                    value = source_local[src - lo]
                elif self.variant == "write":
                    value = ghosts[src]
                else:
                    value = yield from proc.read(source_array, src)
                acc += weight * value
            consumer_local[consumer - lo] = 0.5 * acc
            yield from proc.compute(proc.cost.edges(len(sources)))
        if self.variant == "read":
            yield from proc.barrier()

    def _push_ghosts(self, proc: Proc, state: dict,
                     source_kind: str) -> Generator:
        """Write each boundary value to every consumer processor."""
        lo = proc.rank * self.nodes_per_proc
        source_local = proc.local(state["arrays"][source_kind])
        for src, consumer_procs in state["push"][source_kind].items():
            value = float(source_local[src - lo])
            for dst_proc in consumer_procs:
                yield from proc.am.send_request(
                    dst_proc, "em3d_ghost", (source_kind, src, value))
        yield from proc.am.drain()

    # -- results -------------------------------------------------------------------
    def finalize(self, procs: List[Proc]) -> dict:
        """Gather final values and verify against a sequential run."""
        arrays = procs[0].state["em3d"]["arrays"]
        measured = {
            kind: np.concatenate([p.local(arrays[kind]) for p in procs])
            for kind in ("e", "h")
        }
        expected = self._sequential_reference(procs)
        for kind in ("e", "h"):
            if not np.allclose(measured[kind], expected[kind],
                               rtol=1e-9, atol=1e-12):
                raise AssertionError(
                    f"EM3D({self.variant}) {kind}-values diverge from the "
                    "sequential reference")
        return measured

    def _sequential_reference(self, procs: List[Proc]) -> dict:
        """Re-run the kernel sequentially from the same initial values.

        Each half step is one ``bincount`` over the flattened edges: it
        adds each consumer's terms in edge order from 0.0, as the
        per-consumer loop of ``_half_step`` does, so the sums agree to
        the bit."""
        total = self._n_nodes * self.nodes_per_proc
        parts = [self._initial_values(rank) for rank in range(self._n_nodes)]
        values = {"e": np.concatenate([e for e, _h in parts]),
                  "h": np.concatenate([h for _e, h in parts])}
        consumer = np.repeat(np.arange(total), self.degree)
        edges = {kind: np.asarray(self._edges[kind]).reshape(-1, 2)
                 for kind in ("e", "h")}
        for _step in range(self.steps):
            for consumer_kind, source_kind in (("e", "h"), ("h", "e")):
                src, weight = edges[consumer_kind].T
                terms = weight * values[source_kind][src.astype(np.intp)]
                values[consumer_kind] = 0.5 * np.bincount(
                    consumer, weights=terms, minlength=total)
        return values


def _ghost_handler(am, packet) -> None:
    """Store a pushed boundary value in the consumer's ghost table."""
    kind, src, value = packet.payload
    am.host.state["em3d"]["ghosts"][kind][src] = value
