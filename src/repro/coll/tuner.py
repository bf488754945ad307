"""Algorithm selection: :func:`pick`, its policies, the decision table.

Every :class:`~repro.gas.runtime.Proc` collective method calls
:func:`pick`, which reduces the call's declared traits to the eligible
candidates, lets the cluster's policy choose one, records the choice on
the ``collective`` hook and returns the registered implementation.
``algo=...`` on a ``Proc`` method bypasses the policy (an explicit,
validated override for benchmarks and calibration).

Three policies, mirroring Barchet-Estefanel & Mounie's tuning ladder:

* ``fixed`` — always the registry default (or an explicit per-primitive
  override).  The all-defaults fixed policy runs the paper's Split-C
  schedules, and is what a cluster without tuning uses.
* ``model`` — the :mod:`repro.coll.model` LogGP estimate picks the
  predicted-cheapest eligible algorithm per call, from the machine's
  live parameters and dials.  No measurement needed.
* ``measured`` — a decision table built by :func:`build_decision_table`
  from an actual calibration sweep (one microbenchmark run per cell,
  persisted through the ordinary :class:`~repro.harness.runcache.
  RunCache`), then matched by nearest (P, size) cell at call time.

Every choice is a pure function of SPMD-identical inputs (primitive,
declared size, P, machine parameters), so all ranks always agree on the
schedule — the tuner can never cause a rank-divergent collective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.am.tuning import TuningKnobs
from repro.coll.algorithms import (DEFAULT_ALGORITHMS, PRIMITIVES,
                                   REGISTRY, algorithms_for,
                                   eligible_algorithms, get_algorithm)
from repro.coll.model import estimate_cost
from repro.network.loggp import LogGPParams

__all__ = ["pick", "CollConfig", "FixedPolicy", "ModelPolicy",
           "MeasuredPolicy", "tuner_from_config", "build_decision_table",
           "CALIBRATION_SIZES"]

#: Default declared-size grid (bytes) of the calibration sweep.
CALIBRATION_SIZES = (32, 1024, 16384, 65536)


@dataclass(frozen=True)
class CollConfig:
    """Picklable description of a cluster's collective tuning.

    ``choices`` are per-primitive fixed overrides, e.g.
    ``(("broadcast", "chain"),)``.  ``table`` is a measured decision
    table: ``(primitive, n_ranks, nbytes, bulk, algo)`` cells produced
    by :func:`build_decision_table`.
    """

    policy: str = "fixed"  # "fixed" | "model" | "measured"
    choices: Tuple[Tuple[str, str], ...] = ()
    table: Tuple[Tuple[str, int, int, bool, str], ...] = ()

    def __post_init__(self) -> None:
        if self.policy not in ("fixed", "model", "measured"):
            raise ValueError(f"unknown tuning policy {self.policy!r}")
        for primitive, algo in self.choices:
            if algo not in algorithms_for(primitive):
                raise ValueError(
                    f"unknown {primitive} algorithm {algo!r}")
        if self.policy == "measured" and not self.table:
            raise ValueError(
                "measured policy needs a decision table; build one "
                "with repro.coll.tuner.build_decision_table")

    @property
    def is_default(self) -> bool:
        """Whether this config runs exactly the registry defaults, as a
        cluster without tuning does."""
        return self.policy == "fixed" and not self.choices


class FixedPolicy:
    """Registry defaults, optionally overridden per primitive."""

    name = "fixed"

    def __init__(self,
                 choices: Tuple[Tuple[str, str], ...] = ()) -> None:
        self._choices: Dict[str, str] = dict(choices)

    def choose(self, primitive: str, candidates: Sequence[str],
               n_ranks: int, nbytes: float, params: LogGPParams,
               knobs: TuningKnobs, bulk: bool = False) -> str:
        pick = self._choices.get(primitive,
                                 DEFAULT_ALGORITHMS[primitive])
        if pick in candidates:
            return pick
        # The fixed pick is ineligible for this call (e.g. a bruck
        # override on a sparse alltoall): fall back to the default,
        # then to the first eligible candidate.
        fallback = DEFAULT_ALGORITHMS[primitive]
        return fallback if fallback in candidates else candidates[0]


class ModelPolicy:
    """Predicted-cheapest eligible algorithm per call site."""

    name = "model"

    def choose(self, primitive: str, candidates: Sequence[str],
               n_ranks: int, nbytes: float, params: LogGPParams,
               knobs: TuningKnobs, bulk: bool = False) -> str:
        best = min(
            (estimate_cost(primitive, algo, n_ranks, nbytes, params,
                           knobs=knobs, bulk=bulk), algo)
            for algo in candidates)
        return best[1]


class MeasuredPolicy:
    """Nearest-cell lookup in a measured decision table."""

    name = "measured"

    def __init__(self,
                 table: Tuple[Tuple[str, int, int, bool, str], ...]
                 ) -> None:
        self.table = tuple(table)

    def choose(self, primitive: str, candidates: Sequence[str],
               n_ranks: int, nbytes: float, params: LogGPParams,
               knobs: TuningKnobs, bulk: bool = False) -> str:
        best = None
        for index, cell in enumerate(self.table):
            cell_prim, cell_p, cell_bytes, cell_bulk, algo = cell
            if cell_prim != primitive or algo not in candidates:
                continue
            distance = (
                0 if cell_bulk == bulk else 1,
                abs(math.log2(max(1, cell_p))
                    - math.log2(max(1, n_ranks))),
                abs(math.log2(1 + cell_bytes)
                    - math.log2(1 + max(0.0, nbytes))),
                index,
            )
            if best is None or distance < best[0]:
                best = (distance, algo)
        if best is None:
            # No measurement covers this primitive: registry default.
            pick = DEFAULT_ALGORITHMS[primitive]
            return pick if pick in candidates else candidates[0]
        return best[1]


def tuner_from_config(config: Optional[CollConfig]):
    """The policy object for a :class:`CollConfig` (None -> fixed)."""
    if config is None or config.policy == "fixed":
        return FixedPolicy(config.choices if config is not None else ())
    if config.policy == "model":
        return ModelPolicy()
    return MeasuredPolicy(config.table)


#: The policy of a cluster that never configured tuning.
_DEFAULT_POLICY = FixedPolicy()


def pick(proc: "Proc", primitive: str, nbytes: float,  # noqa: F821
         algo: Optional[str], noted: Optional[float] = None,
         bulk: bool = False, elementwise: bool = False,
         dense: bool = False, uniform: bool = True) -> Callable:
    """The implementation ``proc``'s ``primitive`` call runs.

    The declared traits (see :func:`~repro.coll.algorithms.
    eligible_algorithms`) narrow the registry to the eligible
    candidates; an explicit ``algo`` must be one of them, otherwise the
    cluster's policy chooses for a declared size of ``nbytes``.  The
    choice is fired on the ``collective`` hook before the call sends
    anything, with ``noted`` bytes where the call's total differs from
    the size the policy sees (alltoall).
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
    elif len(candidates) == 1:
        algo = candidates[0]
    else:
        policy = proc.coll_tuner or _DEFAULT_POLICY
        algo = policy.choose(primitive, candidates, n_ranks=proc.n_ranks,
                             nbytes=nbytes, params=proc.am.params,
                             knobs=proc.am.knobs, bulk=bulk)
    hook = proc.probes.collective
    if hook is not None:
        hook(primitive, algo, proc.rank,
             int(nbytes if noted is None else noted))
    return REGISTRY[primitive][algo]


def build_decision_table(n_ranks: int,
                         sizes: Sequence[int] = CALIBRATION_SIZES,
                         primitives: Sequence[str] = PRIMITIVES,
                         params: Optional[LogGPParams] = None,
                         knobs: Optional[TuningKnobs] = None,
                         seed: int = 0, iterations: int = 2,
                         cache: Optional["RunCache"] = None  # noqa: F821
                         ) -> Tuple[Tuple[str, int, int, bool, str], ...]:
    """Measure every (primitive, size, algorithm) cell; keep winners.

    The measurement is :func:`repro.harness.sweeps.measure_algorithms`
    — a pure function of its configuration, so a cached sweep is
    bit-stable.  Returns cells sorted by (primitive, size): a
    deterministic table for a fixed seed.
    """
    from repro.harness.sweeps import measure_algorithms
    measured = measure_algorithms(n_ranks, sizes, primitives, params,
                                  knobs, seed, cache=cache,
                                  iterations=iterations)
    return tuple(sorted(
        (primitive, n_ranks, size, size > 64,
         min((runtime, algo) for algo, runtime in by_algo.items())[1])
        for (primitive, size), by_algo in measured.items()))
