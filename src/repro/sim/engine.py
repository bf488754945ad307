"""The discrete-event simulator core loop.

The :class:`Simulator` owns the clock and the event heap.  A heap entry
is ``(when, priority, seq, callback, arg)``, processed in strict
``(time, priority, sequence)`` order, making every run fully
deterministic for a given seedable workload.  An occurrence nobody waits
on -- a NIC stall, a wire hop, a process's own sleep -- is just that
tuple (:meth:`Simulator.call_in`); an :class:`Event` is the entry whose
``callback`` is ``None``, and exists so that processes and conditions
can wait on it.

The event loop is the hot path of every experiment (a full LogGP sweep
is ~10^7 events), so :meth:`Simulator.run` inlines the per-event work
with the heap and bookkeeping hoisted into locals, and
:meth:`Simulator.timeout` builds its Timeout without going through the
generic ``Event`` constructor.

There is exactly one scheduler.  :meth:`Simulator.step` is the
readable reference for what processing one event means; the two loops
inlined in :meth:`Simulator.run` must stay semantically identical to it
(``tests/test_engine_equivalence.py`` fuzzes them against each other;
ARCHITECTURE.md section 13 records why there is no second tier).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.events import (_INF, NORMAL, AllOf, AnyOf, Event, Timeout,
                              bad_delay)
from repro.sim.process import Process

__all__ = ["Simulator", "StalledError"]


class StalledError(TimeoutError):
    """The event heap drained while a ``stop_event`` was still pending.

    Distinct from the plain :class:`TimeoutError` raised when the
    ``until`` horizon elapses with events still queued: a drained heap
    means no future event can ever trigger the stop condition -- the
    workload is deadlocked, not merely slow.  Subclasses
    :class:`TimeoutError` so existing "did not complete" handling keeps
    working.
    """


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in *microseconds*.  Typical use::

        sim = Simulator()

        def ping():
            yield sim.timeout(5.0)
            return "pong"

        proc = sim.process(ping())
        sim.run()
        assert sim.now == 5.0
    """

    def __init__(self) -> None:
        #: Current simulated time in microseconds; only the loop assigns
        #: it (an attribute, not a property: every layer reads it hot).
        self.now = 0.0
        self._heap: List[Tuple[float, int, int, Optional[Callable], Any]] = []
        self._seq = 0
        self._event_count = 0
        self._stop_requested: Optional[Event] = None

    @property
    def events_processed(self) -> int:
        """Total number of events processed so far (diagnostic)."""
        return self._event_count

    # -- factories ----------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` microseconds from now.

        The waitable delay: something to hand to :meth:`any_of`, to keep
        and yield later, or to receive ``value`` from.  It is assembled
        directly -- pre-triggered and pre-scheduled -- without the
        generic ``Event.__init__``/``_schedule`` machinery.  A process
        that only sleeps yields the bare ``float`` instead, and a
        callback nobody waits on goes through :meth:`call_in`; neither
        builds an object.
        """
        if not 0.0 <= delay < _INF:
            raise bad_delay("timeout delay", delay)
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.name = ""
        event.callbacks = []
        event._value = value
        event._ok = True
        event._scheduled = True
        event._defused = False
        event.delay = delay
        self._seq += 1
        heappush(self._heap,
                 (self.now + delay, NORMAL, self._seq, None, event))
        return event

    def call_in(self, delay: float, callback: Callable[[Any], None],
                arg: Any = None) -> None:
        """Run ``callback(arg)`` from the event loop ``delay``
        microseconds from now: a heap entry and nothing else, ordered
        among events and timeouts by the same ``(time, priority, seq)``
        and validated exactly as :meth:`timeout` validates."""
        if not 0.0 <= delay < _INF:
            raise bad_delay("timeout delay", delay)
        self._seq += 1
        heappush(self._heap,
                 (self.now + delay, NORMAL, self._seq, callback, arg))

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Composite event succeeding when any of ``events`` succeeds."""
        return AnyOf(self, events)

    def all_of(self, events: List[Event]) -> AllOf:
        """Composite event succeeding when all of ``events`` succeed."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        """Insert a triggered event into the heap (internal API)."""
        if not 0.0 <= delay < _INF:
            raise bad_delay("schedule delay", delay)
        if event._scheduled:
            raise RuntimeError(f"{event!r} is already scheduled")
        event._scheduled = True
        self._seq += 1
        heappush(self._heap, (self.now + delay, priority,
                              self._seq, None, event))

    # -- execution --------------------------------------------------------
    def step(self) -> None:
        """Process exactly one heap entry."""
        if not self._heap:
            raise RuntimeError("no events to process")
        when, _priority, _seq, callback, event = heappop(self._heap)
        self.now = when
        self._event_count += 1
        if callback is not None:
            # Nobody waits on it: nothing to mark processed, nothing
            # that can have failed, nothing run() can be stopped by.
            callback(event)
            return
        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        for callback in callbacks:
            callback(event)
        if event._ok is False and not event._defused:
            # A failed event nobody waited on is a programming error:
            # surface it rather than letting it pass silently.
            raise event.value

    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float] = None,
            stop_event: Optional[Event] = None) -> Any:
        """Run until the heap drains, ``until`` time, or ``stop_event``.

        Returns the value of ``stop_event`` if given and triggered.
        Raises :class:`TimeoutError` if ``until`` elapses while
        ``stop_event`` is still pending, and :class:`ValueError` for an
        ``until`` that is NaN or earlier than ``now`` (the clock never
        moves backwards).
        """
        if until is not None and not until >= self.now:
            # One check per call, none per event; NaN fails every
            # comparison, so it lands here too.
            raise ValueError(
                f"cannot run into the past: until={until!r} "
                f"(must be >= now={self.now})")
        if stop_event is not None:
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
            stop_event._defused = True
            stop_event.add_callback(self._stop_callback)
        # The two loops below are step() unrolled with the heap and the
        # event counter in locals.  They must stay semantically identical
        # to step(); the only difference is the `until` horizon check.
        heap = self._heap
        pop = heappop
        count = self._event_count
        try:
            if until is None:
                while heap:
                    when, _priority, _seq, callback, event = pop(heap)
                    self.now = when
                    count += 1
                    if callback is not None:
                        callback(event)
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None  # mark processed
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if event._ok is False and not event._defused:
                        raise event.value
                    if self._stop_requested is not None:
                        stopped = self._stop_requested
                        self._stop_requested = None
                        if stopped._ok is False:
                            raise stopped.value
                        return stopped.value
            else:
                while heap:
                    if heap[0][0] > until:
                        self.now = until
                        break
                    when, _priority, _seq, callback, event = pop(heap)
                    self.now = when
                    count += 1
                    if callback is not None:
                        callback(event)
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None  # mark processed
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
                    if event._ok is False and not event._defused:
                        raise event.value
                    if self._stop_requested is not None:
                        stopped = self._stop_requested
                        self._stop_requested = None
                        if stopped._ok is False:
                            raise stopped.value
                        return stopped.value
        finally:
            self._event_count = count
        if stop_event is not None:
            if not heap:
                raise StalledError(
                    f"event heap drained at t={self.now} with "
                    f"{stop_event!r} still pending")
            raise TimeoutError(
                f"simulation ended at t={self.now} before "
                f"{stop_event!r} triggered")
        if until is not None and self.now < until:
            self.now = until
        return None

    def _stop_callback(self, event: Event) -> None:
        self._stop_requested = event
