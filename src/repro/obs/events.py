"""Typed protocol events (the observability vocabulary).

Every event is a frozen, slotted, picklable dataclass (checked on the
classes as built by ``tests/net/test_value_objects.py``) sharing three
leading fields:

* ``time`` — simulation time the event occurred;
* ``node`` — the node id that emitted it;
* ``corr`` — correlation id tying the event to one configuration
  transaction (span), or ``0`` for node-level events outside any span.

Correlation ids are drawn from the event bus's deterministic counter
(:meth:`repro.obs.bus.EventBus.new_correlation`) — never from ``uuid``
or wall clock — so identical seeded runs produce byte-identical event
streams.

Events round-trip through plain dicts (:func:`to_record` /
:func:`from_record`) for the JSONL export used by ``repro trace``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, ClassVar, Dict, Optional, Tuple, Type

from repro.net.message import slotted


@slotted
@dataclasses.dataclass(frozen=True)
class MessageSend:
    """One transport send (unicast, 1-hop broadcast or flood); a
    :class:`~repro.obs.record.TraceRecorder` with
    ``etypes=("message.send",)`` records exactly these."""

    etype: ClassVar[str] = "message.send"

    time: float
    node: int
    corr: int
    mtype: str
    kind: str                 # "unicast" | "broadcast" | "flood"
    dst: Optional[int]        # None for floods/broadcasts
    hops: int                 # route length (unicast) or cost (flood)
    category: str
    delivered: bool
    dropped: int = 0          # deliveries lost to fault injection

    @property
    def src(self) -> int:
        """The sending node."""
        return self.node

    def __str__(self) -> str:
        target = self.dst if self.dst is not None else "*"
        return (f"t={self.time:8.2f} {self.kind:<9} {self.mtype:<14} "
                f"{self.node:>4} -> {target:>4} ({self.hops} hops, "
                f"{self.category})")


@slotted
@dataclasses.dataclass(frozen=True)
class AttemptStarted:
    """A requester begins a configuration attempt (REQ leg of a span)."""

    etype: ClassVar[str] = "config.attempt"

    time: float
    node: int
    corr: int
    attempt: int              # requester-side attempt sequence number
    kind: str                 # "common" | "head" | "first"
    target: Optional[int]     # the allocator asked (None for "first")


@slotted
@dataclasses.dataclass(frozen=True)
class ConfigRequested:
    """An allocator accepted a request and is proposing an address."""

    etype: ClassVar[str] = "config.request"

    time: float
    node: int
    corr: int
    attempt: int              # allocator-side PendingConfig attempt id
    requester: int
    kind: str                 # "common" | "head"
    address: int
    owner: int                # whose IPSpace the address belongs to
    relayed: bool = False     # Section V-A agent relay


@slotted
@dataclasses.dataclass(frozen=True)
class VoteStarted:
    """Quorum collection opens: QUORUM_CLT goes out to the universe."""

    etype: ClassVar[str] = "vote.start"

    time: float
    node: int
    corr: int
    attempt: int
    address: int
    owner: int
    universe: int             # |QDSet| + 1 (the voting universe size)
    quorum: str               # "linear" | "majority"


@slotted
@dataclasses.dataclass(frozen=True)
class VoteReceived:
    """One member's verdict arrived (QUORUM_CFM, or the own vote)."""

    etype: ClassVar[str] = "vote.receive"

    time: float
    node: int
    corr: int
    attempt: int
    voter: int
    address: int
    status: str               # AddressStatus value ("free" | "assigned")
    timestamp: int            # the record's logical timestamp
    conflict: bool = False    # cross-owner conflict veto


@slotted
@dataclasses.dataclass(frozen=True)
class VoteDecided:
    """The collector reached a quorum and resolved the address."""

    etype: ClassVar[str] = "vote.decide"

    time: float
    node: int
    corr: int
    attempt: int
    address: int
    granted: bool             # latest-timestamp record said FREE
    deciding_ts: int          # timestamp of the record that decided
    responders: int
    universe: int


@slotted
@dataclasses.dataclass(frozen=True)
class VoteTimeout:
    """The vote window closed without a quorum (dropped/late votes)."""

    etype: ClassVar[str] = "vote.timeout"

    time: float
    node: int
    corr: int
    attempt: int
    address: int
    responders: int
    universe: int
    missing: Tuple[int, ...]  # members that never answered


@slotted
@dataclasses.dataclass(frozen=True)
class WriteBack:
    """QUORUM_UPD write-back of a decided record to the replica set."""

    etype: ClassVar[str] = "vote.writeback"

    time: float
    node: int
    corr: int
    owner: int
    address: int
    status: str
    timestamp: int
    targets: Tuple[int, ...]  # replica holders written to


@slotted
@dataclasses.dataclass(frozen=True)
class ConfigCommitted:
    """The allocator committed a grant (COM_CFG / CH_CFG sent)."""

    etype: ClassVar[str] = "config.commit"

    time: float
    node: int
    corr: int
    attempt: int
    requester: int
    address: int
    kind: str                 # "common" | "head"
    borrowed: bool
    latency_hops: int


@slotted
@dataclasses.dataclass(frozen=True)
class ConfigAborted:
    """An attempt ended without a grant (terminal span event)."""

    etype: ClassVar[str] = "config.abort"

    time: float
    node: int
    corr: int
    attempt: int
    requester: int
    reason: str               # "vote-timeout", "address-retries", "dry", ...


@slotted
@dataclasses.dataclass(frozen=True)
class ConfigCompleted:
    """The requester accepted its grant (terminal span event)."""

    etype: ClassVar[str] = "config.complete"

    time: float
    node: int
    corr: int
    address: int
    kind: str                 # "common" | "head" | "first"
    latency_hops: int


@slotted
@dataclasses.dataclass(frozen=True)
class ConfigTimeout:
    """The requester's attempt timer fired with no grant (terminal)."""

    etype: ClassVar[str] = "config.timeout"

    time: float
    node: int
    corr: int
    attempt: int              # requester-side attempt sequence number


@slotted
@dataclasses.dataclass(frozen=True)
class RoleAssigned:
    """A node settled into a role (election outcome / configuration)."""

    etype: ClassVar[str] = "role.assign"

    time: float
    node: int
    corr: int
    role: str                 # "head" | "common"
    address: int
    network_id: Optional[int]


@slotted
@dataclasses.dataclass(frozen=True)
class HeadHandoff:
    """A departing/rejoining head returns its block(s) to another head."""

    etype: ClassVar[str] = "role.handoff"

    time: float
    node: int
    corr: int
    from_head: int
    to_head: int
    blocks: int               # block count returned
    assigned: int             # live assignments handed over


@slotted
@dataclasses.dataclass(frozen=True)
class AddressBorrowed:
    """A commit drew the address from another head's IPSpace."""

    etype: ClassVar[str] = "config.borrow"

    time: float
    node: int
    corr: int
    owner: int
    address: int
    requester: int


@slotted
@dataclasses.dataclass(frozen=True)
class QDSetChanged:
    """Quorum-set adjustment (Section V-B lifecycle).

    ``action`` is one of ``"add"``, ``"suspect"`` (T_d armed),
    ``"clear"`` (suspicion lifted), ``"shrink"`` (T_d expired on the
    majority side), ``"probe"`` (REP_REQ sent, T_r armed) or
    ``"remove"``.
    """

    etype: ClassVar[str] = "qdset.change"

    time: float
    node: int
    corr: int
    member: int
    action: str
    size: int                 # |QDSet| after the change


@slotted
@dataclasses.dataclass(frozen=True)
class ReclamationEvent:
    """Address reclamation lifecycle (Section IV-D).

    ``phase``: "initiated" (ADDR_REC flood), "cancelled" (dead head
    reachable again), "delegated" (another holder absorbs) or
    "absorbed" (space taken over).
    """

    etype: ClassVar[str] = "reclaim.phase"

    time: float
    node: int
    corr: int
    dead: int
    phase: str


@slotted
@dataclasses.dataclass(frozen=True)
class PartitionEvent:
    """Partition/merge lifecycle (Section V-C).

    ``phase``: "rejoin" (this node abandons the losing network) or
    "refound" (an isolated/minority head founds a fresh network).
    """

    etype: ClassVar[str] = "partition.phase"

    time: float
    node: int
    corr: int
    phase: str
    network_id: Optional[int]


#: Every event class, keyed by its ``etype`` tag (JSONL round-trip).
EVENT_TYPES: Dict[str, Type[Any]] = {
    cls.etype: cls
    for cls in (
        MessageSend, AttemptStarted, ConfigRequested, VoteStarted,
        VoteReceived, VoteDecided, VoteTimeout, WriteBack,
        ConfigCommitted, ConfigAborted, ConfigCompleted, ConfigTimeout,
        RoleAssigned, HeadHandoff, AddressBorrowed, QDSetChanged,
        ReclamationEvent, PartitionEvent,
    )
}

#: Terminal event types: every span (corr > 0) must end with one.  The
#: ``obs-coverage`` lint rule reads this set from the parsed source, so
#: keep it ``frozenset({X.etype, ...})`` over this module's classes.
TERMINAL_ETYPES = frozenset({
    ConfigCompleted.etype, ConfigCommitted.etype, ConfigAborted.etype,
    ConfigTimeout.etype, VoteTimeout.etype,
})


def to_record(event: Any) -> Dict[str, Any]:
    """Flatten an event into a JSON-safe dict (``etype`` + fields)."""
    record: Dict[str, Any] = {"etype": event.etype}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if isinstance(value, tuple):
            value = list(value)
        record[field.name] = value
    return record


def from_record(record: Dict[str, Any]) -> Any:
    """Rebuild an event from :func:`to_record` output."""
    cls = EVENT_TYPES[record["etype"]]
    kwargs = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in record.items()
        if key != "etype"
    }
    return cls(**kwargs)
