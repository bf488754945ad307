"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator yields
:class:`~repro.sim.events.Event` objects (or other processes, which are
events themselves) to suspend; it resumes with the event's value via
``send`` or, on event failure, has the exception thrown into it.  The
process is itself an event that triggers when the generator returns.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import Event

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload describing why.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running simulation process; also an event (its own completion)."""

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator",  # noqa: F821
                 generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(generator)!r};"
                " did you forget a 'yield'?")
        super().__init__(sim, name=name or getattr(
            generator, "__name__", "process"))
        self._generator = generator
        # Kick off on the next simulator step at the current time.  The
        # kickoff event doubles as the initial _waiting_on target so stray
        # wakeups can never resume the process.
        kickoff = Event(sim, name=f"init:{self.name}")
        self._waiting_on: Optional[Event] = kickoff
        kickoff.callbacks.append(self._resume)
        kickoff.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def waiting_on(self) -> Optional[Event]:
        """The event this process is currently suspended on, if any.

        Diagnostic surface for simsan's stall reports: a live process
        with a never-triggering target here is a blocked rank.
        """
        return self._waiting_on

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The interrupt wins over whatever event the process is currently
        waiting on; that event's eventual trigger is then ignored.
        Interrupting a finished process is an error.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished {self!r}")
        # Detach from the current wait so its wakeup is discarded.
        self._waiting_on = None
        bridge = Event(self.sim, name=f"interrupt:{self.name}")
        bridge.callbacks.append(lambda _e: self._throw(Interrupt(cause)))
        bridge.succeed(None)

    # -- stepping ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Hot path: runs once per process wakeup.  A processed event
        # always has ``_ok`` decided, so read the slot directly rather
        # than the raising ``ok`` property.
        if event is not self._waiting_on:
            # Stale wakeup from an event abandoned by an interrupt.
            return
        self._waiting_on = None
        try:
            if event._ok:
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
        # _wait_on's common case, inline: a pending event of this simulator.
        if isinstance(target, Event) and target.sim is self.sim:
            callbacks = target.callbacks
            if callbacks is not None:
                self._waiting_on = target
                callbacks.append(self._resume)
                return
        self._wait_on(target)

    def _throw(self, exc: BaseException) -> None:
        if self.triggered:
            return
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
        if not isinstance(target, Event):
            exc = TypeError(
                f"process {self.name!r} yielded non-event {target!r}")
            self._throw(exc)
            return
        if target.sim is not self.sim:
            self._throw(ValueError(
                "yielded event belongs to a different simulator"))
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: add_callback bridges via a fresh event.
            target.add_callback(self._resume)
        else:
            callbacks.append(self._resume)
