"""The observation bus: the instants of a run an observer may see.

:data:`HOOKS` is *the* list (ARCHITECTURE.md section 3 has the table:
firing site, simulated instant, arguments, subscribers).  No site passes
the simulated time or a constant of the run: ``begin`` hands subscribers
the :class:`~repro.sim.Simulator` and the cluster, and they read those.
"""

from __future__ import annotations

from typing import Callable, Iterable, Tuple

__all__ = ["HOOKS", "Probes"]

HOOKS = (
    # The message path, in the order a message meets them.
    "send", "inject", "deliver", "recv", "handled", "blocked",
    "wait_enter", "wait_exit", "mark",
    "packet_dropped", "retransmit", "duplicate",  # on a lossy fabric
    "access", "range", "lock_wait", "lock_acquired", "lock_released",
    "failed_lock", "barrier", "collective",
    "begin", "finish",  # once per run, around everything else
)


def _fan_out(listeners: Tuple[Callable, ...]) -> Callable:
    def fan_out(*args) -> None:
        for listener in listeners:
            listener(*args)
    return fan_out


class Probes:
    """One slot per hook, resolved once from the subscribers' ``on_<hook>``
    methods: ``None`` when nobody listens, the bound method when one
    does, else a call of each in subscription order."""

    __slots__ = HOOKS

    def __init__(self, subscribers: Iterable[object] = ()) -> None:
        subscribers = tuple(subscribers)
        for subscriber in subscribers:
            unknown = [name for name in dir(subscriber)
                       if name.startswith("on_") and name[3:] not in HOOKS]
            if unknown:
                raise ValueError(
                    f"{type(subscriber).__name__} has {', '.join(unknown)}; "
                    f"the observable instants are {', '.join(HOOKS)}")
        for hook in HOOKS:
            listeners = tuple(
                getattr(subscriber, "on_" + hook)
                for subscriber in subscribers
                if hasattr(subscriber, "on_" + hook))
            setattr(self, hook,
                    _fan_out(listeners) if len(listeners) > 1
                    else listeners[0] if listeners else None)
