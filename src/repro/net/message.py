"""Protocol messages.

Messages are small typed envelopes.  The substrate routes by *node*
identity (the hardware ID); IP addresses appear only inside payloads,
mirroring how an autoconfiguration protocol must bootstrap before IPs
exist.

:class:`Message` is a frozen, slotted value object: the transport
stamps routing fields (``src``/``dst``/``hops``/``sent_at``) by
building amended copies with :func:`dataclasses.replace`, never by
mutating a message a sender still holds.  That is what makes fan-out
deliveries safe to share between receivers, and
``tests/net/test_value_objects.py`` checks it on the class as built.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import (Any, Callable, ClassVar, Collection, Dict, Optional, Type,
                    TypeVar)

_message_ids = itertools.count()

_T = TypeVar("_T")


def slotted(cls: Type[_T]) -> Type[_T]:
    """Rebuild a dataclass with ``__slots__`` (3.9-compatible).

    ``@dataclass(slots=True)`` only exists from Python 3.10; this
    decorator backports it the way CPython implements it — recreate the
    class with ``__slots__`` drawn from the dataclass fields and drop
    the per-instance ``__dict__``.  Field defaults live on the original
    class, which is why slots cannot simply be declared in the class
    body (the names would collide with the default class attributes).

    Frozen dataclasses additionally need pickling support: without a
    ``__dict__`` the default reducer applies slot state via ``setattr``,
    which a frozen class rejects, so ``__getstate__``/``__setstate__``
    are attached using ``object.__setattr__``.
    """
    fields = dataclasses.fields(cls)  # type: ignore[arg-type]
    field_names = tuple(f.name for f in fields)
    namespace = dict(cls.__dict__)
    namespace["__slots__"] = field_names
    for name in field_names:
        namespace.pop(name, None)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    rebuilt = type(cls)(cls.__name__, cls.__bases__, namespace)
    rebuilt.__qualname__ = getattr(cls, "__qualname__", cls.__name__)

    def __getstate__(self: object) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in field_names}

    def __setstate__(self: object, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    rebuilt.__getstate__ = __getstate__  # type: ignore[attr-defined]
    rebuilt.__setstate__ = __setstate__  # type: ignore[attr-defined]
    return rebuilt


@slotted
@dataclasses.dataclass(frozen=True)
class Message:
    """A protocol message (immutable).

    Attributes:
        mtype: message type name (e.g. ``"COM_REQ"``, ``"QUORUM_CLT"``).
        src: sender node id.
        dst: destination node id (``None`` for broadcast/flood payloads).
        payload: protocol-specific fields.
        network_id: the sender's partition identifier, carried on every
            message so receivers can detect partitions/merges (Section
            V-C).
        hops: route length travelled, stamped on the delivered copy.
        sent_at: simulation time the message was sent.
        msg_id: globally unique message number (debugging/tracing).
            Copies made with :func:`dataclasses.replace` keep their
            original ``msg_id`` — including the transport's flyweight
            fan-out copies, which are shared by every receiver at the
            same hop distance (frozen messages make sharing safe).
        corr: correlation id of the configuration transaction this
            message belongs to (``0`` outside any transaction).  Drawn
            from the run's deterministic event-bus counter — see
            :mod:`repro.obs` — and carried end to end (replies and
            fan-out copies keep it) so traces reconstruct each
            allocation as one span.
    """

    mtype: str
    src: int
    dst: Optional[int]
    payload: Dict[str, Any] = dataclasses.field(default_factory=dict)
    network_id: Optional[int] = None
    hops: int = 0
    sent_at: float = 0.0
    msg_id: int = dataclasses.field(default_factory=lambda: next(_message_ids))
    corr: int = 0

    def __repr__(self) -> str:
        return f"Message({self.mtype}, {self.src}->{self.dst}, hops={self.hops})"


class MessageDispatch:
    """Base of every agent class: a method named ``_handle_<mtype.lower()>``
    handles messages of type ``<MTYPE>`` (an alias such as
    ``_handle_ch_nack = _handle_com_nack`` included).  The functions are
    gathered into ``_handlers`` once, when the class is created, and
    ``on_message`` probes that dict.  A class that sets ``message_types``
    must handle exactly those types, or creating it (or a subclass)
    raises :class:`TypeError`.
    """

    message_types: ClassVar[Optional[Collection[str]]] = None
    _handlers: ClassVar[Dict[str, Callable[[Any, Message], None]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {
            name[len("_handle_"):].upper(): getattr(cls, name)
            for name in dir(cls)
            if name.startswith("_handle_") and callable(getattr(cls, name))}
        if cls.message_types is None:
            return
        handled, listed = set(cls._handlers), set(cls.message_types)
        if handled != listed:
            raise TypeError(
                f"{cls.__name__}: handlers for unlisted types: "
                f"{sorted(handled - listed)}; types without a handler: "
                f"{sorted(listed - handled)}")
