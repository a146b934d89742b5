"""Allocator-side configuration attempts.

A :class:`PendingConfig` tracks one in-flight configuration: the
requester, the proposed address (or block for cluster-head grants), the
vote collector over the QDSet universe, and the accumulated critical-path
hop count that becomes the paper's configuration-latency metric.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Optional

from repro.addrspace.block import Block
from repro.quorum.voting import VoteCollector

_attempt_ids = itertools.count(1)


def reset_attempt_ids() -> None:
    """Restart the attempt-id sequence (called once per simulation run).

    Attempt ids are opaque matching tokens, so their values never drive
    protocol decisions — but they do appear in recorded traces
    (:mod:`repro.obs`), and a process-global counter would make the ids
    depend on how many runs the process executed before this one.
    Restarting per run keeps identical seeded runs byte-identical,
    whether executed serially or in fresh worker processes.
    """
    global _attempt_ids
    _attempt_ids = itertools.count(1)


@dataclasses.dataclass
class PendingConfig:
    """One configuration attempt in progress at an allocator.

    Attributes:
        attempt_id: unique token matching replies to attempts.
        requester: node id being configured.
        kind: ``"common"`` (single address) or ``"head"`` (block grant).
        address: proposed address (common) or the block's first address.
        block: proposed block for head grants, ``None`` for common.
        owner_id: node id whose IPSpace the address belongs to (self for
            normal allocation, another head when borrowing).
        collector: quorum vote collector; ``None`` before voting starts.
        latency_hops: critical-path hops accumulated so far (request leg
            plus any proposal legs); the quorum round trip and the final
            grant leg are added as they happen.
        vote_sent: hops to each voter, for the round-trip term.
        address_retries: how many candidate addresses were tried.
        relay_of: if this attempt was relayed from another head acting
            as agent (Section V-A), the relaying head's node id.
        corr: correlation id carried by the requester's COM_REQ/CH_REQ
            (see :mod:`repro.obs`); stamped on every message of this
            attempt so traces reconstruct it as one span.  ``0`` when
            tracing is disabled.
        req_seq: the requester's ``"seq"`` from its COM_REQ/CH_REQ,
            echoed in the grant or refusal (``None`` when the request
            carried none).
    """

    requester: int
    kind: str
    address: int
    owner_id: int
    corr: int = 0
    block: Optional[Block] = None
    collector: Optional[VoteCollector] = None
    latency_hops: int = 0
    vote_sent: Dict[int, int] = dataclasses.field(default_factory=dict)
    address_retries: int = 0
    relay_of: Optional[int] = None
    committed: bool = False
    cfg_delivered: bool = False   # the grant message reached the requester
    req_seq: Optional[int] = None
    attempt_id: int = dataclasses.field(default_factory=lambda: next(_attempt_ids))

    def quorum_round_trip(self) -> int:
        """2 x the farthest responding voter (self-votes are 0 hops)."""
        if self.collector is None:
            return 0
        distances = [
            self.vote_sent.get(voter, 0) for voter in self.collector.responders
        ]
        return 2 * max(distances) if distances else 0
