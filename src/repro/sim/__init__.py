"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, specialised for this project.  Simulated time is a ``float`` and
is interpreted as *microseconds* throughout the repository (matching the
units of the LogGP parameters in the paper).  Unlike SimPy, a process
takes one wait at a time (a sleep, an event, a park or an
:class:`AllOf`), nothing cuts a wait short, and that wait's one wake-up
resumes it.

Public surface:

* :class:`~repro.sim.engine.Simulator` -- the event loop.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`.
* :class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Park`.
* :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`.
"""

from repro.sim.engine import Simulator, StalledError
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.process import Park, Process
from repro.sim.resources import Resource, Store

__all__ = [
    "Simulator",
    "StalledError",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "Park",
    "Resource",
    "Store",
]
