"""Structured message tracing.

A :class:`MessageTrace` subscribes to a transport's event bus
(:attr:`Transport.obs <repro.net.transport.Transport.obs>`) and records
every send — unicast, 1-hop broadcast or flood — as a typed
:class:`~repro.obs.events.MessageSend` event.  Used by the Table 1
reproduction and tests that assert on protocol exchanges.

Every send flows through the unified
:meth:`~repro.net.transport.Transport.send` endpoint before the bus,
so the tap sees all traffic regardless of scope.  Attachment is
explicit and reversible, and both context-manager spellings are safe::

    with MessageTrace().attach(ctx.transport) as trace:
        ...run...                       # detaches on exit
    with MessageTrace.attached(ctx.transport) as trace:
        ...run...                       # same, as one call

Recording is bounded by ``limit``; events past it are tallied in
:attr:`MessageTrace.truncated` rather than silently dropped.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from repro.net.transport import Transport
from repro.obs.bus import EventBus
from repro.obs.events import MessageSend


class MessageTrace:
    """Records transport activity; optionally filtered by message type."""

    def __init__(self, mtypes: Optional[List[str]] = None,
                 limit: int = 100_000) -> None:
        self.events: List[MessageSend] = []
        self.truncated = 0
        self._mtypes = set(mtypes) if mtypes else None
        self._limit = limit
        self._bus: Optional[EventBus] = None

    # ------------------------------------------------------------------
    @classmethod
    def attached(cls, transport: Transport,
                 mtypes: Optional[List[str]] = None,
                 limit: int = 100_000) -> "MessageTrace":
        """Construct and attach in one step (context-manager friendly)."""
        return cls(mtypes=mtypes, limit=limit).attach(transport)

    def attach(self, transport: Transport) -> "MessageTrace":
        if self._bus is not None:
            raise RuntimeError("trace already attached")
        self._bus = transport.obs
        self._bus.subscribe(self._on_event)
        return self

    def detach(self) -> None:
        if self._bus is None:
            return
        self._bus.unsubscribe(self._on_event)
        self._bus = None

    @property
    def is_attached(self) -> bool:
        return self._bus is not None

    def __enter__(self) -> "MessageTrace":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _on_event(self, event: Any) -> None:
        if not isinstance(event, MessageSend):
            return  # only transport sends; protocol events pass by
        if self._mtypes is not None and event.mtype not in self._mtypes:
            return
        if len(self.events) >= self._limit:
            self.truncated += 1
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def unicasts(self, mtype: Optional[str] = None,
                 delivered_only: bool = True) -> Iterator[MessageSend]:
        for event in self.events:
            if event.kind != "unicast":
                continue
            if delivered_only and not event.delivered:
                continue
            if mtype is not None and event.mtype != mtype:
                continue
            yield event

    def floods(self) -> Iterator[MessageSend]:
        return (e for e in self.events if e.kind == "flood")

    def message_types(self) -> List[str]:
        """Distinct message types, in first-appearance order."""
        seen: List[str] = []
        for event in self.events:
            if event.mtype not in seen:
                seen.append(event.mtype)
        return seen

    def between(self, a: int, b: int) -> List[MessageSend]:
        """Delivered unicasts exchanged (either direction) by a and b."""
        return [
            e for e in self.unicasts()
            if {e.src, e.dst} == {a, b}
        ]

    def __len__(self) -> int:
        return len(self.events)
