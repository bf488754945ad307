"""A planted race, and an answer check that then fails.

Every rank puts its id into its right neighbour's slot and reads its
own with nothing between the two, as in ``racy_put.py``; ``finalize``
then rejects the output, as a suite app's check rejects the wrong
answer such a race produces.  simsan must report the race *and* the
failed check: the race is what explains the wrong answer.
"""

from __future__ import annotations

from typing import Generator, List

from repro.apps.base import Application
from repro.gas.runtime import Proc


class RacyWrong(Application):
    """One planted put/read race, then a failed answer check."""

    name = "RacyWrong"

    def run_rank(self, proc: Proc) -> Generator:
        slots = proc.allocate(proc.n_ranks, name="slots")
        right = (proc.rank + 1) % proc.n_ranks
        yield from proc.write(slots, right, proc.rank)  # planted race: put
        value = yield from proc.read(slots, proc.rank)  # planted race: read
        proc.state["observed"] = value
        yield from proc.sync()
        yield from proc.barrier()

    def finalize(self, procs: List[Proc]):
        raise AssertionError("planted wrong answer")
