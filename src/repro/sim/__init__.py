"""Discrete-event simulation kernel.

A small, deterministic, generator-based discrete-event engine in the style
of SimPy, specialised for this project.  Simulated time is a ``float`` and
is interpreted as *microseconds* throughout the repository (matching the
units of the LogGP parameters in the paper).

Public surface:

* :class:`~repro.sim.engine.Simulator` -- the event loop.
* :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf`, :class:`~repro.sim.events.AllOf`.
* :class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Park`,
  :class:`~repro.sim.process.Interrupt`.
* :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`.
"""

from repro.sim.engine import Simulator, StalledError
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, Park, Process
from repro.sim.resources import Resource, Store

__all__ = [
    "Simulator",
    "StalledError",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "Process",
    "Park",
    "Interrupt",
    "Resource",
    "Store",
]
