"""Shared resources for simulation processes.

Two primitives cover everything the cluster model needs:

* :class:`Resource` -- a counted, FCFS resource (a disk arm).
  ``request()`` returns an event that succeeds when
  a slot is granted; ``release()`` frees it.
* :class:`Store` -- an unbounded (or bounded) FIFO of items (e.g. a NIC
  receive queue).  ``put(item)`` and ``get()`` both return events.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.events import Event

__all__ = ["Resource", "Store", "ResourceError"]


class ResourceError(RuntimeError):
    """Raised on misuse of a resource (e.g. releasing more than held)."""


class Resource:
    """A counted FCFS resource.

    Typical use inside a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,  # noqa: F821
                 name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Event] = deque()

    def request(self) -> Event:
        """Ask for a slot; the returned event succeeds when granted."""
        event = Event(self.sim, name=f"req:{self.name}")
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(None)
        else:
            self._queue.append(event)
        return event

    def release(self) -> None:
        """Free one slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise ResourceError(f"release() on idle resource {self.name!r}")
        if self._queue:
            # Hand the slot straight to the next waiter; _in_use unchanged.
            self._queue.popleft().succeed(None)
        else:
            self._in_use -= 1


class Store:
    """A FIFO buffer of items with event-based put/get.

    With ``capacity=None`` (default) the store is unbounded and ``put``
    always succeeds immediately.
    """

    def __init__(self, sim: "Simulator",  # noqa: F821
                 capacity: Optional[int] = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item) pairs

    def __len__(self) -> int:
        return len(self._items)

    @property
    def getters_waiting(self) -> int:
        return len(self._getters)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event succeeds once stored."""
        event = Event(self.sim, name=f"put:{self.name}")
        if self._getters:
            # Direct hand-off to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            event.succeed(None)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Remove the oldest item; the event succeeds with that item."""
        event = Event(self.sim, name=f"get:{self.name}")
        if self._items:
            event.succeed(self._items.popleft())
            if self._putters:
                putter, item = self._putters.popleft()
                self._items.append(item)
                putter.succeed(None)
        else:
            self._getters.append(event)
        return event

    def peek_items(self) -> tuple:
        """A snapshot of buffered items (diagnostic, oldest first)."""
        return tuple(self._items)
