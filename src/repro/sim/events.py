"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence in simulated time.  Processes
(generators) ``yield`` events to suspend until the event *triggers*.  Events
may succeed with a value or fail with an exception; a failed event re-raises
its exception inside every waiting process.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = ["Event", "Timeout", "AllOf", "EventError"]

#: Default priority of a heap entry; lower runs first at equal times.
NORMAL = 1

_INF = float("inf")


class EventError(RuntimeError):
    """Raised on misuse of an event (double trigger, reading too early)."""


def bad_delay(kind: str, delay: float) -> ValueError:
    """The ValueError for a delay outside ``[0, inf)``.

    Callers only land here after ``0.0 <= delay < _INF`` failed, i.e.
    the delay is negative, ``+inf``, or NaN.  NaN compares false against
    everything, so a bare ``delay < 0`` check would silently admit NaN
    and corrupt the schedule order -- non-finite values get their own
    explicit message; finite negatives keep the legacy text.
    """
    if delay != delay or delay in (_INF, -_INF):
        return ValueError(
            f"non-finite {kind}: {delay!r} (delays must be finite and >= 0)")
    if kind == "timeout delay":
        return ValueError(f"negative timeout delay: {delay}")
    return ValueError(f"cannot schedule into the past: delay={delay}")


_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in ``repr`` for debugging.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_scheduled",
                 "_defused")

    def __init__(self, sim: "Simulator", name: str = "") -> None:  # noqa: F821
        self.sim = sim
        self.name = name
        #: Callables invoked with this event once it is processed.
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        #: Set once a process has consumed this event's failure, so the
        #: simulator does not re-raise it as an unhandled error.
        self._defused = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value (succeed/fail)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise EventError(f"{self!r} has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if self._value is _PENDING:
            raise EventError(f"{self!r} has no value yet")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Mark the event successful and schedule callback processing.

        ``delay`` defers the event's occurrence into the simulated future.
        Returns self for chaining.
        """
        if self.triggered:
            raise EventError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Mark the event failed; waiting processes see ``exception``."""
        if self.triggered:
            raise EventError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs when the event is processed.

        If the event has already been processed the callback fires on the
        next simulator step (never synchronously), preserving determinism.
        """
        if self.callbacks is None:
            # Already processed: deliver via a zero-delay heap entry so the
            # callback still runs from the event loop, never synchronously.
            self.sim.call_in(0.0, callback, self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{self.__class__.__name__} {label} [{state}]>"


class Timeout(Event):
    """An event that fires ``delay`` simulated microseconds after creation.

    Built only by :meth:`Simulator.timeout`, which assembles it
    pre-triggered and pushes it in one step; the label is derived in
    ``__repr__`` instead of eagerly formatted.
    """

    __slots__ = ("delay",)

    def __init__(self, *_args: Any, **_kwargs: Any) -> None:
        raise TypeError("build a Timeout with Simulator.timeout(delay, value)")

    def __repr__(self) -> str:
        label = self.name or f"timeout({self.delay})"
        state = "processed" if self.processed else "triggered"
        return f"<{self.__class__.__name__} {label} [{state}]>"


class AllOf(Event):
    """Succeeds, with ``{child: value}``, once every child event has
    succeeded; fails with the first child failure."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator",  # noqa: F821
                 events: List[Event]) -> None:
        super().__init__(sim, name="AllOf")
        self.events = list(events)
        self._remaining = len(self.events)
        for event in self.events:
            if event.sim is not sim:
                raise ValueError("events belong to a different simulator")
        if not self.events:
            self.succeed({})
        for event in self.events:
            # A *processed* child already happened; merely-triggered ones
            # (e.g. a Timeout, whose value is fixed at creation) are still
            # in the simulated future and deliver via callback.
            if event.processed:
                self._on_child(event)
            else:
                event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event._defused = True  # consumed: re-raised via this event
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e.value for e in self.events})
