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
from typing import Any, Dict, Optional


@dataclasses.dataclass(frozen=True, slots=True)
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
    corr: int = 0

    def __repr__(self) -> str:
        return f"Message({self.mtype}, {self.src}->{self.dst}, hops={self.hops})"

