"""Dispatch entry points: primitive call -> tuner -> algorithm.

Every :class:`~repro.gas.runtime.Proc` collective routes through here:
the call's declared traits (size, bulk, density, elementwise-ness) are
reduced to the eligible candidate set, the cluster's tuning policy picks
one schedule — identically on every rank, because every input to the
choice is SPMD-identical — and the pick is recorded on
``ClusterStats.on_collective`` before the algorithm runs.

``algo=...`` on any entry point bypasses the tuner (an explicit,
validated override for benchmarks and calibration).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.coll import algorithms
from repro.coll.core import TOKEN_BYTES
from repro.coll.tuner import FixedPolicy

__all__ = ["barrier", "broadcast", "reduce", "allreduce", "gather",
           "scatter", "allgather", "alltoall"]

#: The policy used when a cluster never configured tuning: registry
#: defaults, i.e. the legacy machine.
_DEFAULT_POLICY = FixedPolicy()


def _select(proc: "Proc", primitive: str, nbytes: float,  # noqa: F821
            algo: Optional[str], bulk: bool = False,
            elementwise: bool = False, dense: bool = False,
            uniform: bool = True) -> str:
    candidates = algorithms.eligible_algorithms(
        primitive, elementwise=elementwise, dense=dense, uniform=uniform)
    if algo is not None:
        algorithms.get_algorithm(primitive, algo)  # validate the name
        if algo not in candidates:
            raise ValueError(
                f"{primitive} algorithm {algo!r} is not eligible for "
                f"this call (elementwise={elementwise}, dense={dense}, "
                f"uniform={uniform})")
        return algo
    if len(candidates) == 1:
        return candidates[0]
    tuner = getattr(proc, "coll_tuner", None) or _DEFAULT_POLICY
    return tuner.choose(primitive, candidates, n_ranks=proc.n_ranks,
                        nbytes=nbytes, params=proc.am.params,
                        knobs=proc.am.knobs, bulk=bulk)


def _note(proc: "Proc", primitive: str, algo: str,  # noqa: F821
          nbytes: float) -> None:
    hook = proc.probes.collective
    if hook is not None:
        hook(primitive, algo, proc.rank, int(nbytes))


def barrier(proc: "Proc", algo: Optional[str] = None  # noqa: F821
            ) -> Generator:
    """Barrier over all ranks."""
    name = _select(proc, "barrier", TOKEN_BYTES, algo)
    _note(proc, "barrier", name, TOKEN_BYTES)
    yield from algorithms.get_algorithm("barrier", name)(proc)


def broadcast(proc: "Proc", value: Any = None, root: int = 0,  # noqa: F821
              size: int = 32, bulk: bool = False,
              algo: Optional[str] = None) -> Generator:
    """Broadcast from ``root``; returns the value on every rank."""
    name = _select(proc, "broadcast", size, algo, bulk=bulk)
    _note(proc, "broadcast", name, size)
    result = yield from algorithms.get_algorithm("broadcast", name)(
        proc, value, root=root, size=size, bulk=bulk)
    return result


def reduce(proc: "Proc", value: Any, op: Callable[[Any, Any], Any],  # noqa: F821
           root: int = 0, size: int = 32, bulk: bool = False,
           algo: Optional[str] = None) -> Generator:
    """Reduction to ``root`` (other ranks receive ``None``)."""
    name = _select(proc, "reduce", size, algo, bulk=bulk)
    _note(proc, "reduce", name, size)
    result = yield from algorithms.get_algorithm("reduce", name)(
        proc, value, op, root=root, size=size, bulk=bulk)
    return result


def allreduce(proc: "Proc", value: Any,  # noqa: F821
              op: Callable[[Any, Any], Any], size: int = 32,
              bulk: bool = False, elementwise: bool = False,
              algo: Optional[str] = None) -> Generator:
    """Reduction whose result lands on every rank.

    Declare ``elementwise=True`` (identically on every rank) when
    ``value`` is a sliceable vector and ``op`` acts elementwise — it
    makes the Rabenseifner ring eligible.
    """
    name = _select(proc, "allreduce", size, algo, bulk=bulk,
                   elementwise=elementwise)
    _note(proc, "allreduce", name, size)
    result = yield from algorithms.get_algorithm("allreduce", name)(
        proc, value, op, size=size, bulk=bulk, elementwise=elementwise)
    return result


def gather(proc: "Proc", value: Any, root: int = 0, size: int = 32,  # noqa: F821
           bulk: bool = False, algo: Optional[str] = None) -> Generator:
    """Gather one value per rank to ``root`` (a rank-ordered list;
    other ranks receive ``None``).  ``size`` is the per-rank size."""
    name = _select(proc, "gather", size, algo, bulk=bulk)
    _note(proc, "gather", name, size)
    result = yield from algorithms.get_algorithm("gather", name)(
        proc, value, root=root, size=size, bulk=bulk)
    return result


def scatter(proc: "Proc", values: Optional[List[Any]],  # noqa: F821
            root: int = 0, size: int = 32, bulk: bool = False,
            algo: Optional[str] = None) -> Generator:
    """Scatter ``values[r]`` from ``root`` to each rank ``r``; returns
    this rank's slot.  ``size`` is the per-rank size."""
    name = _select(proc, "scatter", size, algo, bulk=bulk)
    _note(proc, "scatter", name, size)
    result = yield from algorithms.get_algorithm("scatter", name)(
        proc, values, root=root, size=size, bulk=bulk)
    return result


def allgather(proc: "Proc", value: Any, size: int = 32,  # noqa: F821
              bulk: bool = False,
              algo: Optional[str] = None) -> Generator:
    """Gather one value per rank onto every rank (rank-ordered list)."""
    name = _select(proc, "allgather", size, algo, bulk=bulk)
    _note(proc, "allgather", name, size)
    result = yield from algorithms.get_algorithm("allgather", name)(
        proc, value, size=size, bulk=bulk)
    return result


def alltoall(proc: "Proc", values: List[Any], size: int = 32,  # noqa: F821
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
    name = _select(proc, "alltoall",
                   sum(sizes) / max(1, len(sizes)) if sizes else size,
                   algo, bulk=bulk, dense=dense, uniform=sizes is None)
    total = sum(sizes) if sizes is not None \
        else size * max(0, proc.n_ranks - 1)
    _note(proc, "alltoall", name, total)
    result = yield from algorithms.get_algorithm("alltoall", name)(
        proc, values, size=size, sizes=sizes, bulk=bulk, dense=dense)
    return result
