"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` objects (or other processes, which are
events themselves) to suspend; it resumes with the event's value via
``send`` or, on event failure, has the exception thrown into it.  A
generator that yields a plain number sleeps for that many microseconds
and resumes with ``None``: its wake-up is a bare heap entry, no event is
built.  A generator that yields a :class:`Park` waits there, its one
waiter, for :meth:`Park.wake`.  The process is itself an event that
triggers when the generator returns.
"""

from __future__ import annotations

from heapq import heappush
from numbers import Real
from typing import Any, Generator, Optional, Union

from repro.sim.events import _INF, NORMAL, Event, bad_delay

__all__ = ["Process", "Park"]


class Park:
    """A reusable wait with one known waiter: ``yield park`` suspends the
    process until :meth:`wake` and resumes it with ``None``.  No value,
    no callback list, no one-shot state: ``wake()`` takes the very heap
    entry ``Event.succeed()`` would push, and builds nothing.
    """

    __slots__ = ("sim", "name", "waiter")

    #: What :meth:`Process._resume` reads off whatever woke it.
    _ok, _value = True, None

    def __init__(self, sim: "Simulator", name: str = "") -> None:  # noqa: F821
        self.sim = sim
        self.name = name
        #: The parked process, until woken; else None.
        self.waiter: Optional[Process] = None

    def wake(self) -> None:
        """Resume the parked process from the event loop, now; a no-op
        when nobody is parked (or a wake is already on its way)."""
        process = self.waiter
        if process is not None:
            self.waiter = None
            self.sim.call_in(0.0, process._resume, self)

    def __repr__(self) -> str:
        state = "idle" if self.waiter is None else "pending"
        return f"<Park {self.name or 'park'} [{state}]>"


class Process(Event):
    """A running simulation process; also an event (its own completion)."""

    __slots__ = ("_generator", "waiting_on")

    def __init__(self, sim: "Simulator",  # noqa: F821
                 generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(generator)!r};"
                " did you forget a 'yield'?")
        super().__init__(sim, name=name or getattr(
            generator, "__name__", "process"))
        self._generator = generator
        #: The event or park this process is suspended on; None while it
        #: runs or sleeps (a sleep always ends).  Diagnostic surface for
        #: simsan's stall reports: a live process with a never-triggering
        #: target here is a blocked rank.
        self.waiting_on: Union[Event, Park, None] = None
        # Kick off on the next simulator step at the current time.
        self._sleep(0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- stepping ---------------------------------------------------------
    def _resume(self, event: Union[Event, Park, None]) -> None:
        # Hot path: runs once per process wakeup, with the event or park
        # waited on or, out of a bare sleep, None.  Every wait has exactly
        # one wake-up, so whatever resumes us is the wait we took.  A
        # processed event always has ``_ok`` decided, so read the slot
        # directly rather than the raising ``ok`` property.
        self.waiting_on = None
        try:
            if event is None:
                target = self._generator.send(None)
            elif event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001
            # simlint: disable=broad-except - any generator death must
            # become a process failure, never a lost exception.
            self.fail(exc)
            return
        # _wait_on's common cases, inline: sleep, free park, pending event.
        if target.__class__ is float and 0.0 <= target < _INF:
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap,
                     (sim.now + target, NORMAL, seq, self._resume, None))
            return
        if target.__class__ is Park:
            if target.waiter is None and target.sim is self.sim:
                self.waiting_on = target
                target.waiter = self
                return
        elif isinstance(target, Event) and target.sim is self.sim:
            callbacks = target.callbacks
            if callbacks is not None:
                self.waiting_on = target
                callbacks.append(self._resume)
                return
        self._wait_on(target)

    def _sleep(self, delay: float) -> None:
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap,
                 (sim.now + delay, NORMAL, seq, self._resume, None))

    def _throw(self, exc: BaseException) -> None:
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # noqa: BLE001
            # simlint: disable=broad-except - any generator death must
            # become a process failure, never a lost exception.
            self.fail(err)
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Real) and target.__class__ is not bool:
            delay = float(target)
            if 0.0 <= delay < _INF:
                self._sleep(delay)
            else:
                self._throw(bad_delay("timeout delay", delay))
            return
        if not isinstance(target, (Event, Park)):
            exc = TypeError(
                f"process {self.name!r} yielded non-event {target!r}")
            self._throw(exc)
            return
        if target.sim is not self.sim:
            self._throw(ValueError(
                "yielded event belongs to a different simulator"))
            return
        if not isinstance(target, Park):
            self.waiting_on = target
            target.add_callback(self._resume)  # bridged if processed
        elif target.waiter is None:
            self.waiting_on = target
            target.waiter = self
        else:
            self._throw(RuntimeError(
                f"{target!r} already holds {target.waiter.name!r}"))
