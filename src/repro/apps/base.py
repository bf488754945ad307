"""The application contract the cluster runtime executes."""

from __future__ import annotations

import abc
from typing import Any, Generator, List

from repro.am.layer import HandlerTable
from repro.gas.runtime import Proc

__all__ = ["Application"]


class Application(abc.ABC):
    """An SPMD program runnable on a :class:`~repro.cluster.machine.Cluster`.

    Lifecycle per run (driven by the cluster):

    1. :meth:`configure` -- build the (deterministic) input for this run.
    2. :meth:`register_handlers` -- install the app's Active Message
       handlers.
    3. :meth:`setup_rank` -- per-rank, *untimed* input distribution.
    4. entry barrier; the measured region starts.
    5. :meth:`run_rank` -- the timed SPMD program.
    6. drain + exit barrier; the measured region ends.
    7. :meth:`finalize` -- gather outputs and check correctness.
    """

    #: Display name (Table 3/4 row label).
    name: str = "app"

    #: True for open-system workloads (request arrivals injected from
    #: outside the rank set, e.g. :mod:`repro.serve`).  Analysis tiers
    #: that model only the closed SPMD dependency graph — simcost's
    #: recorder/replay — refuse such runs instead of mispredicting.
    open_system: bool = False

    def configure(self, n_nodes: int, seed: int) -> None:
        """Build this run's input deterministically.  Called every run, so
        stale state from a previous run must be reset here."""

    def register_handlers(self, table: HandlerTable) -> None:
        """Install application Active Message handlers."""

    def setup_rank(self, proc: Proc) -> Generator:
        """Untimed per-rank setup (data distribution, graph spreading).

        Mirrors the paper's methodology of timing the computational
        phases on realistic inputs rather than program load time.
        """
        return
        yield  # pragma: no cover - makes this a generator

    @abc.abstractmethod
    def run_rank(self, proc: Proc) -> Generator:
        """The timed SPMD program for one rank."""

    def finalize(self, procs: List[Proc]) -> Any:
        """Gather outputs from all ranks after the run; may validate
        correctness and raise on wrong answers."""
        return None
