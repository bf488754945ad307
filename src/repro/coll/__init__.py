"""``repro.coll`` — tuned collective communication for the cluster.

A tuned-collectives layer in the NCCL/MPICH mould, built entirely on
the simulated Active Message substrate:

* :mod:`repro.coll.algorithms` — an algorithm registry of the
  schedules each primitive runs: two interchangeable ones for each of
  the four Table 8 grades (broadcast, allreduce, allgather,
  personalized alltoall), one for barrier and gather; the defaults are
  the paper's Split-C schedules.  Its
  :func:`~repro.coll.algorithms.pick` is what each
  :class:`~repro.gas.runtime.Proc` collective method calls.
* :mod:`repro.coll.model` — closed-form LogGP cost estimates per
  (algorithm, P, size), from the machine's live parameters and dials;
  Table 8 grades its picks against measured winners.
* :mod:`repro.coll.bench` — the calibration microbenchmark.

Applications call the ``Proc`` methods (``proc.barrier()``,
``proc.allreduce(value, op)``, ...); ``algo=`` names a schedule
explicitly, otherwise the call runs the registry default.
"""

from repro.coll.algorithms import (DEFAULT_ALGORITHMS, PRIMITIVES,
                                   algorithms_for, eligible_algorithms,
                                   get_algorithm, registry)
from repro.coll.core import COLL_HANDLER, register_coll_handlers
from repro.coll.model import estimate_cost, predicted_ranking

__all__ = [
    "PRIMITIVES", "DEFAULT_ALGORITHMS", "registry", "algorithms_for",
    "get_algorithm", "eligible_algorithms",
    "COLL_HANDLER", "register_coll_handlers",
    "estimate_cost", "predicted_ranking",
]
