"""Vote collection with latest-timestamp resolution.

A configuration attempt proposes an address and collects votes from the
QDSet.  Each vote carries the voter's replica record (status +
timestamp); once enough votes arrive, "the information with the latest
time stamp is chosen to determine the availability of the address"
(Section I / IV-B).
"""

from __future__ import annotations

import dataclasses
from typing import AbstractSet, Dict, Optional, Set

from repro.addrspace.records import AddressRecord, AddressStatus


def is_quorum(responders: AbstractSet[int], universe: AbstractSet[int],
              distinguished: Optional[int] = None) -> bool:
    """Do ``responders`` form a quorum of ``universe``?

    The one place the paper's quorum conditions are turned into
    arithmetic.  Only responders inside the universe count.  A strict
    majority always qualifies (``w > v/2``, Section II-C).  Under
    dynamic linear voting (Jajodia & Mutchler [19], Section II-D)
    exactly half of an even universe qualifies too, if it holds the
    ``distinguished`` node — for address operations, the head whose
    IPSpace holds the address.  Two such halves meet at that node, so
    any two quorums still intersect (Definition 1).  With
    ``distinguished=None`` a bare half never qualifies, since two
    disjoint halves could both proceed.
    ``tests/lint/test_timer_and_quorum_literals.py`` keeps callers
    from re-deriving either condition inline.
    """
    members = responders & universe
    votes, size = len(members), len(universe)
    if 2 * votes > size:
        return True
    return size % 2 == 0 and votes == size // 2 and distinguished in members


@dataclasses.dataclass(frozen=True)
class Vote:
    """One QDSet member's answer about one address."""

    voter: int
    address: int
    record: AddressRecord


class VoteCollector:
    """Accumulates votes for one proposed address.

    The collector is created with the QDSet *universe* at proposal time
    and, under dynamic linear voting, the *distinguished* node;
    :func:`is_quorum` decides sufficiency.  The allocator's own record
    counts as a vote (it holds a copy too).
    """

    def __init__(
        self,
        address: int,
        universe: Set[int],
        distinguished: Optional[int] = None,
    ) -> None:
        self.address = address
        self.universe = set(universe)
        self.distinguished = distinguished
        self._votes: Dict[int, Vote] = {}

    def add_vote(self, vote: Vote) -> None:
        if vote.address != self.address:
            raise ValueError(
                f"vote for {vote.address} fed to collector for {self.address}"
            )
        if vote.voter in self.universe:
            self._votes[vote.voter] = vote

    @property
    def responders(self) -> Set[int]:
        return set(self._votes)

    def latest_record(self) -> Optional[AddressRecord]:
        """The record with the highest timestamp among votes received."""
        if not self._votes:
            return None
        best = max(self._votes.values(), key=lambda v: v.record.timestamp)
        return best.record

    def decide(self) -> Optional[bool]:
        """None until a quorum exists; then True iff the address is free."""
        if not is_quorum(self.responders, self.universe, self.distinguished):
            return None
        record = self.latest_record()
        assert record is not None
        return record.status is AddressStatus.FREE
