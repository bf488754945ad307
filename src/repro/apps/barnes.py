"""Barnes-Hut N-body (the paper's ``Barnes``, after SPLASH-2 [45]).

Each timestep builds a shared octree over the bodies and then computes
forces by traversing it with the standard opening criterion.  As in the
paper's implementation:

* the octree is a *software* shared structure: cells live on an owner
  processor (hash of the cell's path key) and are reached with Active
  Messages;
* tree updates are synchronised through **blocking locks** with
  test-and-set/retry semantics.  Under added overhead the lock retry
  traffic itself saturates the owning processors and the failed-attempt
  count explodes -- the livelock the paper reports (Barnes does not
  complete past ~13 µs added overhead on 16 nodes, ~7 µs on 32);
* during the read-only interaction phase remote cells are fetched once
  into a per-processor software cache (bulk replies: Barnes is ~23%
  bulk, ~21% reads in Table 4).

The Barnes-Hut octree is canonical for a given body set (splitting
continues until bodies separate), so the distributed build produces
exactly the tree a sequential build does; forces are validated against
a sequential Barnes-Hut with the same geometry and θ.
"""

from __future__ import annotations

import math
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.am.layer import HandlerReply, HandlerTable, Reply
from repro.apps.base import Application
from repro.gas.runtime import Proc
from repro.gas.sync import DistributedLock

__all__ = ["Barnes"]

#: Deepest tree level; bodies closer than 2^-MAX_DEPTH share a leaf.
MAX_DEPTH = 12

#: Wire bytes for a fetched cell record (type + moment + children map:
#: a mass, three doubles of centre-of-mass, and an octant bitmap).
CELL_BYTES = 64

#: Gravitational softening, avoiding singular close encounters.
SOFTENING = 1e-3


# ---------------------------------------------------------------------------
# Geometry helpers shared by the distributed build and the sequential
# reference, guaranteeing both produce the canonical octree.
# ---------------------------------------------------------------------------

def cell_center(key: Tuple[int, ...]) -> np.ndarray:
    """Center of the cell with path ``key`` in the unit cube."""
    center = np.array([0.5, 0.5, 0.5])
    half = 0.25
    for octant in key:
        for axis in range(3):
            direction = 1.0 if (octant >> axis) & 1 else -1.0
            center[axis] += direction * half
        half *= 0.5
    return center


def cell_half_width(key: Tuple[int, ...]) -> float:
    """Half the edge length of the cell with path ``key``; the root
    (empty key) spans the unit cube, so its half-width is 0.5."""
    return 0.5 ** (len(key) + 1)


def octant_of(position: np.ndarray, key: Tuple[int, ...]) -> int:
    """Which child octant of cell ``key`` contains ``position``."""
    center = cell_center(key)
    octant = 0
    for axis in range(3):
        if position[axis] >= center[axis]:
            octant |= 1 << axis
    return octant


def cell_owner(key: Tuple[int, ...], n_nodes: int) -> int:
    """Hash-based cell ownership (deterministic across runs)."""
    acc = 2166136261
    for octant in key:
        acc = ((acc ^ (octant + 1)) * 16777619) & 0xFFFFFFFF
    return acc % n_nodes


def lock_id_of(key: Tuple[int, ...]) -> int:
    """A stable integer lock id for a cell key."""
    acc = 402653189
    for octant in key:
        acc = (acc * 31 + octant + 7) & 0x7FFFFFFF
    return acc


def plan_split(key: Tuple[int, ...],
               existing: Tuple[int, np.ndarray, float],
               incoming: Tuple[int, np.ndarray, float]) -> List[tuple]:
    """Records to create when ``incoming`` lands on occupied leaf ``key``.

    Returns ``[(cell_key, record), ...]`` ordered children-first so a
    concurrent descender never sees a half-built subtree; the original
    cell's flip to internal comes last.  Internal records carry their
    explicit ``children`` octant sets (parents and children generally
    live on different owners, so child maps travel with the records).
    """
    records: List[tuple] = []
    chain = [key]
    current = key
    while len(current) < MAX_DEPTH:
        octant_a = octant_of(existing[1], current)
        octant_b = octant_of(incoming[1], current)
        if octant_a != octant_b:
            records.append((current + (octant_a,),
                            {"type": "leaf", "bodies": [existing]}))
            records.append((current + (octant_b,),
                            {"type": "leaf", "bodies": [incoming]}))
            deepest_children = {octant_a, octant_b}
            break
        current = current + (octant_a,)
        chain.append(current)
    else:
        # Max depth: the two bodies share one leaf.
        records.append((current,
                        {"type": "leaf",
                         "bodies": [existing, incoming]}))
        chain.pop()  # `current` is the shared leaf, not an internal
        deepest_children = {current[-1]} if chain else set()
    # Intermediate cells become internal, deepest first; `key` is last.
    # Each internal's only child is the next link of the chain, except
    # the deepest one, whose children are the separated leaves.
    children = deepest_children
    for cell in reversed(chain):
        records.append((cell, {"type": "internal",
                               "children": set(children)}))
        children = {cell[-1]} if cell else set()
    return records


class Barnes(Application):
    """The hierarchical N-body simulation.

    Parameters
    ----------
    bodies_per_proc:
        Bodies each processor owns and inserts.
    """

    name = "Barnes"

    #: Barnes-Hut opening criterion (cell used whole if size/dist < θ).
    theta = 0.6
    #: Timesteps: one build + moments + forces + update.
    steps = 1
    #: Integration step for the position update.
    dt = 0.01

    def __init__(self, bodies_per_proc: int = 8) -> None:
        if bodies_per_proc < 1:
            raise ValueError("bodies_per_proc must be >= 1")
        self.bodies_per_proc = bodies_per_proc
        self._positions: np.ndarray = np.empty((0, 3))
        self._velocities: np.ndarray = np.empty((0, 3))
        self._masses: np.ndarray = np.empty(0)
        self._n_nodes = 0

    @classmethod
    def scaled(cls, scale: float = 1.0) -> "Barnes":
        return cls(bodies_per_proc=max(4, int(8 * scale)))

    # -- input -----------------------------------------------------------------
    def configure(self, n_nodes: int, seed: int) -> None:
        self._n_nodes = n_nodes
        rng = np.random.RandomState(seed + 0xB0D1)
        total = n_nodes * self.bodies_per_proc
        # Two gaussian clusters inside the unit cube: realistic clumping
        # without escaping the root cell.
        centers = np.array([[0.35, 0.35, 0.5], [0.7, 0.65, 0.45]])
        assignment = rng.randint(0, 2, size=total)
        self._positions = np.clip(
            centers[assignment] + rng.normal(0, 0.08, size=(total, 3)),
            0.01, 0.99)
        self._velocities = rng.normal(0, 0.05, size=(total, 3))
        self._masses = rng.uniform(0.5, 2.0, size=total)

    def register_handlers(self, table: HandlerTable) -> None:
        table.register("barnes_get_cell", _get_cell_handler)
        table.register("barnes_put_cell", _put_cell_handler)
        table.register("barnes_add_child", _add_child_handler)
        table.register("barnes_get_moment", _get_moment_handler)
        table.register("barnes_fetch_cell", _fetch_cell_handler)

    def setup_rank(self, proc: Proc) -> Generator:
        proc.state["barnes"] = {
            "app": self,
            "cells": {},
            "cache": {},
            "positions": self._positions.copy(),
            "velocities": self._velocities.copy(),
            "masses": self._masses,
            "accels": np.zeros_like(self._positions),
        }
        return
        yield  # pragma: no cover

    def _my_bodies(self, proc: Proc) -> range:
        first = proc.rank * self.bodies_per_proc
        return range(first, first + self.bodies_per_proc)

    # -- the timed program ---------------------------------------------------------
    def run_rank(self, proc: Proc) -> Generator:
        state = proc.state["barnes"]
        yield from proc.barrier()
        yield from self._build_phase(proc, state)
        yield from proc.barrier()
        yield from self._moment_phase(proc, state)
        yield from proc.barrier()
        yield from self._force_phase(proc, state)
        yield from proc.barrier()
        self._update_bodies(state)
        yield from proc.compute(proc.cost.ops(10 * self.bodies_per_proc))
        yield from proc.barrier()

    # .. build ..................................................................
    def _build_phase(self, proc: Proc, state: dict) -> Generator:
        positions = state["positions"]
        masses = state["masses"]
        for body in self._my_bodies(proc):
            yield from self._insert(
                proc, (body, positions[body], float(masses[body])))

    def _insert(self, proc: Proc, body: tuple) -> Generator:
        key: Tuple[int, ...] = ()
        while True:
            record = yield from self._get_cell(proc, key)
            if record is not None and record["type"] == "internal":
                key = key + (octant_of(body[1], key),)
                continue
            # Empty or leaf: take the cell's lock and re-check.
            lock = DistributedLock(cell_owner(key, proc.n_ranks),
                                   lock_id_of(key))
            yield from proc.lock(lock)
            record = yield from self._get_cell(proc, key)
            if record is not None and record["type"] == "internal":
                yield from proc.unlock(lock)
                key = key + (octant_of(body[1], key),)
                continue
            if record is None:
                yield from self._put_cell(
                    proc, key, {"type": "leaf", "bodies": [body]})
                if key:
                    # A brand-new cell must appear in its parent's child
                    # map (the parent generally lives elsewhere); blocking
                    # so the map is complete before the build barrier.
                    yield from self._register_child(proc, key)
                yield from proc.unlock(lock)
                return
            # Occupied leaf: split until the two bodies separate.
            if len(key) >= MAX_DEPTH:
                bodies = record["bodies"] + [body]
                yield from self._put_cell(
                    proc, key, {"type": "leaf", "bodies": bodies})
                yield from proc.unlock(lock)
                return
            existing = record["bodies"][0]
            if len(record["bodies"]) > 1:  # pragma: no cover - max depth
                bodies = record["bodies"] + [body]
                yield from self._put_cell(
                    proc, key, {"type": "leaf", "bodies": bodies})
                yield from proc.unlock(lock)
                return
            for cell, new_record in plan_split(key, existing, body):
                yield from self._put_cell(proc, cell, new_record)
            yield from proc.unlock(lock)
            return

    def _get_cell(self, proc: Proc, key) -> Generator:
        cells = proc.state["barnes"]["cells"]
        owner = cell_owner(key, proc.n_ranks)
        if owner == proc.rank:
            yield from proc.compute(proc.cost.ops(2))
            record = cells.get(key)
            return dict(record) if record is not None else None
        result = yield from proc.am.rpc(owner, "barnes_get_cell", key,
                                        is_read=True)
        return result

    def _put_cell(self, proc: Proc, key, record: dict) -> Generator:
        cells = proc.state["barnes"]["cells"]
        owner = cell_owner(key, proc.n_ranks)
        if owner == proc.rank:
            yield from proc.compute(proc.cost.ops(2))
            _store_cell(cells, key, record)
            return
        # Blocking put: ordering matters (children before parents).
        yield from proc.am.rpc(owner, "barnes_put_cell", (key, record))

    def _register_child(self, proc: Proc, key) -> Generator:
        parent = key[:-1]
        owner = cell_owner(parent, proc.n_ranks)
        if owner == proc.rank:
            yield from proc.compute(proc.cost.ops(1))
            _add_child(proc.state["barnes"]["cells"], parent, key[-1])
            return
        yield from proc.am.rpc(owner, "barnes_add_child",
                               (parent, key[-1]))

    # .. moments ..................................................................
    def _moment_phase(self, proc: Proc, state: dict) -> Generator:
        cells = state["cells"]
        local_max = max((len(k) for k in cells), default=0)
        max_depth = yield from proc.allreduce(local_max, max)
        for depth in range(max_depth, -1, -1):
            for key in sorted(k for k in cells if len(k) == depth):
                record = cells[key]
                if record["type"] == "leaf":
                    mass = sum(b[2] for b in record["bodies"])
                    com = sum((b[2] * b[1] for b in record["bodies"]),
                              np.zeros(3)) / mass
                else:
                    mass = 0.0
                    com = np.zeros(3)
                    for octant in record["children"]:
                        child = key + (octant,)
                        child_moment = yield from self._get_moment(
                            proc, child)
                        child_mass, child_com = child_moment
                        mass += child_mass
                        com += child_mass * np.asarray(child_com)
                    com /= mass
                record["moment"] = (mass, com)
                yield from proc.compute(proc.cost.ops(12))
            yield from proc.barrier()

    def _get_moment(self, proc: Proc, key) -> Generator:
        owner = cell_owner(key, proc.n_ranks)
        if owner == proc.rank:
            yield from proc.compute(proc.cost.ops(1))
            mass, com = proc.state["barnes"]["cells"][key]["moment"]
            return mass, np.asarray(com)
        moment = yield from proc.am.rpc(owner, "barnes_get_moment", key,
                                        is_read=True)
        mass, com = moment
        return mass, np.asarray(com)

    # .. forces ..................................................................
    def _force_phase(self, proc: Proc, state: dict) -> Generator:
        positions = state["positions"]
        accels = state["accels"]
        for body in self._my_bodies(proc):
            acc, interactions = yield from self._body_force(
                proc, state, body, positions[body])
            accels[body] = acc
            yield from proc.compute(proc.cost.interactions(interactions))

    def _body_force(self, proc: Proc, state: dict, body: int,
                    position: np.ndarray) -> Generator:
        acc = np.zeros(3)
        interactions = 0
        stack: List[Tuple[int, ...]] = [()]
        while stack:
            key = stack.pop()
            record = yield from self._fetch_cached(proc, state, key)
            if record is None:
                continue
            if record["type"] == "leaf":
                for other_id, other_pos, other_mass in record["bodies"]:
                    if other_id == body:
                        continue
                    acc += _pairwise(position, np.asarray(other_pos),
                                     other_mass)
                    interactions += 1
                continue
            mass, com = record["moment"]
            com = np.asarray(com)
            size = 2.0 * cell_half_width(key)  # the cell's edge length
            distance = float(np.linalg.norm(com - position))
            if distance > 0 and size / distance < self.theta:
                acc += _pairwise(position, com, mass)
                interactions += 1
            else:
                # Deterministic order: descend octants high to low so the
                # pop order is 0..7, matching the sequential reference.
                for octant in sorted(record["children"], reverse=True):
                    stack.append(key + (octant,))
        return acc, interactions

    def _fetch_cached(self, proc: Proc, state: dict,
                      key) -> Generator:
        owner = cell_owner(key, proc.n_ranks)
        if owner == proc.rank:
            yield from proc.compute(proc.cost.ops(1))
            record = state["cells"].get(key)
            return record
        cache = state["cache"]
        if key in cache:
            yield from proc.compute(proc.cost.ops(1))
            return cache[key]
        reply = yield from proc.am.bulk_rpc(owner, "barnes_fetch_cell",
                                            key)
        record, _nbytes = reply
        cache[key] = record
        return record

    # .. update ..................................................................
    def _update_bodies(self, state: dict) -> None:
        """Leapfrog update; every rank updates the full replicated set
        identically (deterministic, no communication needed for the
        scaled-down body counts)."""
        state["velocities"] += state["accels"] * self.dt
        state["positions"] = np.clip(
            state["positions"] + state["velocities"] * self.dt,
            0.01, 0.99)

    # -- results ----------------------------------------------------------------
    def finalize(self, procs: List[Proc]) -> np.ndarray:
        accels = np.zeros((self._n_nodes * self.bodies_per_proc, 3))
        for proc in procs:
            rows = self._my_bodies(proc)
            accels[list(rows)] = proc.state["barnes"]["accels"][list(rows)]
        expected = self._reference_accels()
        if not np.allclose(accels, expected, rtol=1e-6, atol=1e-9):
            raise AssertionError(
                "Barnes-Hut accelerations diverge from the sequential "
                "reference")
        return accels

    def _reference_accels(self) -> np.ndarray:
        """Sequential Barnes-Hut over the same bodies, geometry and θ."""
        masses = self._masses.tolist()
        total = len(masses)
        # Plain floats from here on: the walk below does thousands of
        # three-element sums, which numpy would pay per call.
        points = self._positions.tolist()
        cells: Dict[tuple, dict] = {}
        for body in range(total):
            _sequential_insert(cells, (body, points[body], masses[body]))
        _sequential_moments(cells)
        return np.array([_sequential_force(cells, body, points[body],
                                           self.theta)
                         for body in range(total)])


# ---------------------------------------------------------------------------
# Shared cell-store mutation and the sequential reference implementation.
# ---------------------------------------------------------------------------

def _store_cell(cells: dict, key, record: dict) -> None:
    """Insert/replace a cell record at its owner."""
    record = dict(record)
    if record["type"] == "internal":
        record["children"] = set(record.get("children", ()))
    cells[key] = record


def _add_child(cells: dict, key, octant: int) -> None:
    """Register ``octant`` in internal cell ``key``'s child map."""
    cells[key]["children"].add(octant)


def _pairwise(position: np.ndarray, source: np.ndarray,
              mass: float) -> np.ndarray:
    delta = source - position
    distance_sq = float(delta @ delta) + SOFTENING ** 2
    return mass * delta / distance_sq ** 1.5


def _sequential_insert(cells: dict, body: tuple) -> None:
    key: Tuple[int, ...] = ()
    while True:
        record = cells.get(key)
        if record is not None and record["type"] == "internal":
            key = key + (octant_of(body[1], key),)
            continue
        if record is None:
            _store_cell(cells, key, {"type": "leaf", "bodies": [body]})
            if key:
                _add_child(cells, key[:-1], key[-1])
            return
        if len(key) >= MAX_DEPTH or len(record["bodies"]) > 1:
            bodies = record["bodies"] + [body]
            _store_cell(cells, key, {"type": "leaf", "bodies": bodies})
            return
        for cell, new_record in plan_split(key, record["bodies"][0],
                                           body):
            _store_cell(cells, cell, new_record)
        return


def _sequential_moments(cells: dict) -> None:
    """Each cell's ``(mass, centre of mass)``, deepest cells first, in
    the parallel moment phase's order of operations."""
    for key in sorted(cells, key=len, reverse=True):
        record = cells[key]
        if record["type"] == "leaf":
            parts = [(mass, point)
                     for _body, point, mass in record["bodies"]]
        else:
            parts = [cells[key + (octant,)]["moment"]
                     for octant in record["children"]]
        mass = cx = cy = cz = 0.0
        for part_mass, (x, y, z) in parts:
            mass += part_mass
            cx += part_mass * x
            cy += part_mass * y
            cz += part_mass * z
        record["moment"] = (mass, (cx / mass, cy / mass, cz / mass))


def _sequential_force(cells: dict, body: int, position: List[float],
                      theta: float) -> Tuple[float, float, float]:
    """``body``'s acceleration: ``_body_force``'s walk, in floats."""
    px, py, pz = position
    softening_sq = SOFTENING ** 2
    ax = ay = az = 0.0
    stack: List[Tuple[int, ...]] = [()]
    while stack:
        key = stack.pop()
        record = cells.get(key)
        if record is None:
            continue
        if record["type"] == "leaf":
            pulls = [(point, mass) for other_id, point, mass
                     in record["bodies"] if other_id != body]
        else:
            mass, (x, y, z) = record["moment"]
            dx, dy, dz = x - px, y - py, z - pz
            size = 2.0 * cell_half_width(key)
            distance = math.sqrt(dx * dx + dy * dy + dz * dz)
            if not (distance > 0 and size / distance < theta):
                for octant in sorted(record["children"], reverse=True):
                    stack.append(key + (octant,))
                continue
            pulls = [((x, y, z), mass)]
        for (x, y, z), mass in pulls:
            dx, dy, dz = x - px, y - py, z - pz
            cube = (dx * dx + dy * dy + dz * dz + softening_sq) ** 1.5
            ax += mass * dx / cube
            ay += mass * dy / cube
            az += mass * dz / cube
    return ax, ay, az


# ---------------------------------------------------------------------------
# Active Message handlers (cell owner side).
# ---------------------------------------------------------------------------

def _get_cell_handler(am, packet) -> Optional[dict]:
    cells = am.host.state["barnes"]["cells"]
    record = cells.get(packet.payload)
    payload: Optional[dict] = None
    if record is not None:
        payload = {"type": record["type"]}
        if record["type"] == "leaf":
            payload["bodies"] = list(record["bodies"])
    return payload


def _put_cell_handler(am, packet) -> bool:
    key, record = packet.payload
    _store_cell(am.host.state["barnes"]["cells"], key, record)
    return True


def _add_child_handler(am, packet) -> bool:
    key, octant = packet.payload
    _add_child(am.host.state["barnes"]["cells"], key, octant)
    return True


def _get_moment_handler(am, packet) -> tuple:
    record = am.host.state["barnes"]["cells"][packet.payload]
    mass, com = record["moment"]
    return mass, com.tolist()


def _fetch_cell_handler(am, packet) -> HandlerReply:
    """Interaction-phase fetch: the full read-only cell record, shipped
    as a bulk reply (cells carry moments and body lists)."""
    record = am.host.state["barnes"]["cells"].get(packet.payload)
    payload: Optional[dict] = None
    if record is not None:
        payload = {"type": record["type"]}
        if record["type"] == "leaf":
            payload["bodies"] = [
                (bid, np.asarray(pos), mass)
                for bid, pos, mass in record["bodies"]]
        else:
            payload["children"] = sorted(record["children"])
            payload["moment"] = record["moment"]
    return Reply(payload, nbytes=CELL_BYTES)
