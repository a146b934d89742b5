"""Allocator-side configuration attempts.

A :class:`PendingConfig` is the whole record of one in-flight
allocation: the requester, the proposed address (or block for
cluster-head grants), the vote collector over the QDSet universe and
the vote timer bounding it, and the accumulated critical-path hop count
that becomes the paper's configuration-latency metric.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.addrspace.block import Block
from repro.quorum.voting import VoteCollector
from repro.sim.timers import Timer


@dataclasses.dataclass
class PendingConfig:
    """One configuration attempt in progress at an allocator.

    Attributes:
        attempt_id: token matching replies to attempts, drawn from the
            run's ``NetworkContext.attempt_ids``.
        requester: node id being configured.
        address: proposed address (common) or the block's first address.
        owner_id: node id whose IPSpace the address belongs to (self for
            normal allocation, another head when borrowing).
        block: proposed block for head grants, ``None`` for common.
        collector: quorum vote collector; ``None`` before voting starts.
        vote_timer: the armed vote timeout of the current vote round;
            ``None`` once the round decided, timed out or was dropped.
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

    attempt_id: int
    requester: int
    address: int
    owner_id: int
    corr: int = 0
    block: Optional[Block] = None
    collector: Optional[VoteCollector] = None
    vote_timer: Optional[Timer] = None
    latency_hops: int = 0
    vote_sent: Dict[int, int] = dataclasses.field(default_factory=dict)
    address_retries: int = 0
    relay_of: Optional[int] = None
    committed: bool = False
    cfg_delivered: bool = False   # the grant message reached the requester
    req_seq: Optional[int] = None

    @property
    def kind(self) -> str:
        """``"head"`` for a block grant, ``"common"`` for one address."""
        return "common" if self.block is None else "head"

    def disarm(self) -> None:
        """Stop the vote timer, if one is armed."""
        if self.vote_timer is not None:
            self.vote_timer.stop()
            self.vote_timer = None

    def quorum_round_trip(self) -> int:
        """2 x the farthest responding voter (self-votes are 0 hops)."""
        if self.collector is None:
            return 0
        distances = [
            self.vote_sent.get(voter, 0) for voter in self.collector.responders
        ]
        return 2 * max(distances) if distances else 0
