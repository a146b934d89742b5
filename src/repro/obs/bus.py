"""The event bus: deterministic publish/subscribe, free when disabled.

One :class:`EventBus` exists per run (``ctx.obs``, shared with the
transport).  With no subscribers the bus is *falsy*, and every emission
site guards on that before even constructing the event object::

    obs = self.ctx.obs
    if obs:
        obs.emit(VoteStarted(...))

so a run with tracing disabled allocates nothing and branches once per
would-be event — the zero-overhead guarantee
``tests/obs/test_tracing_integration.py`` pins down.  Emission never touches perf counters or RNG streams, and
correlation ids come from a plain monotonic counter (never ``uuid`` or
wall clock; the ``determinism`` lint rule enforces the ban), so
enabling tracing cannot perturb protocol behavior and identical seeded
runs emit byte-identical streams.
"""

from __future__ import annotations

from typing import Any, Callable, List

Subscriber = Callable[[Any], None]


class EventBus:
    """Synchronous fan-out of protocol events to subscribers."""

    __slots__ = ("_subscribers", "_corr")

    def __init__(self) -> None:
        self._subscribers: List[Subscriber] = []
        self._corr = 0

    def __bool__(self) -> bool:
        """Truthy iff anyone is listening (the emission gate)."""
        return bool(self._subscribers)

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register ``subscriber``; events are delivered in subscribe
        order, synchronously, on the emitting call stack."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove ``subscriber`` (no-op when not subscribed)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    def emit(self, event: Any) -> None:
        for subscriber in list(self._subscribers):
            subscriber(event)

    def new_correlation(self) -> int:
        """The next correlation id (monotonic, deterministic, > 0)."""
        self._corr += 1
        return self._corr
