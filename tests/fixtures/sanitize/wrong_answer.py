"""A race-free app whose answer check fails.

Every rank meets at one barrier and stops; ``finalize`` then rejects
the output the way a suite app's check rejects a wrong answer, with an
``AssertionError``.  simsan must record it as this app's failure and go
on to the next app.
"""

from __future__ import annotations

from typing import Generator, List

from repro.apps.base import Application
from repro.gas.runtime import Proc


class WrongAnswer(Application):
    """A planted wrong answer: the run is clean, the check is not."""

    name = "WrongAnswer"

    def run_rank(self, proc: Proc) -> Generator:
        yield from proc.barrier()

    def finalize(self, procs: List[Proc]):
        raise AssertionError("planted: rank 0 holds the wrong sum")
