"""Vote collection with latest-timestamp resolution.

A configuration attempt proposes an address and collects votes from the
QDSet.  Each vote carries the voter's replica record (status +
timestamp); once enough votes arrive, "the information with the latest
time stamp is chosen to determine the availability of the address"
(Section I / IV-B).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Set

from repro.addrspace.records import AddressRecord, AddressStatus

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.quorum.system import QuorumSystem


def majority_threshold(total: int) -> int:
    """Smallest quorum satisfying ``w > v/2`` over ``total`` votes.

    The one place the paper's Section II-C write condition is turned
    into arithmetic: ``floor(v/2) + 1``.  With an odd universe this is
    ``(v+1)/2``; with an even universe a bare half does *not* qualify
    (two disjoint halves could otherwise both proceed).
    ``tests/lint/test_timer_and_quorum_literals.py`` keeps callers from
    re-deriving it inline.
    """
    return total // 2 + 1


def half_of(total: int) -> int:
    """Exactly half of an (even) universe — the linear-voting set size.

    Dynamic linear voting (Section II-D) accepts a half-set quorum iff
    it contains the distinguished node; this helper names that size so
    the ``// 2`` never appears at call sites.
    """
    return total // 2


@dataclasses.dataclass(frozen=True)
class ReadWriteThresholds:
    """Gifford-style read/write quorum sizes over ``v`` votes.

    The paper's conditions (Section II-C): ``w > v/2`` and ``r + w > v``.
    """

    read: int
    write: int
    total: int

    def valid(self) -> bool:
        return (
            0 < self.read <= self.total
            and 0 < self.write <= self.total
            and self.write * 2 > self.total
            and self.read + self.write > self.total
        )

    @classmethod
    def majority(cls, total: int) -> "ReadWriteThresholds":
        """The symmetric choice ``r = w = floor(v/2) + 1``."""
        majority = majority_threshold(total)
        return cls(read=majority, write=majority, total=total)


@dataclasses.dataclass(frozen=True)
class Vote:
    """One QDSet member's answer about one address."""

    voter: int
    address: int
    record: AddressRecord


class VoteCollector:
    """Accumulates votes for one proposed address.

    The collector is created with the QDSet *universe* at proposal time
    and a :class:`QuorumSystem` deciding sufficiency.  The allocator's
    own record counts as a vote (it holds a copy too).
    """

    def __init__(
        self,
        address: int,
        universe: Set[int],
        system: QuorumSystem,
    ) -> None:
        self.address = address
        self.universe = set(universe)
        self.system = system
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

    def have_quorum(self) -> bool:
        return self.system.is_quorum(self.responders, self.universe)

    def latest_record(self) -> Optional[AddressRecord]:
        """The record with the highest timestamp among votes received."""
        if not self._votes:
            return None
        best = max(self._votes.values(), key=lambda v: v.record.timestamp)
        return best.record

    def decide(self) -> Optional[bool]:
        """None until a quorum exists; then True iff the address is free."""
        if not self.have_quorum():
            return None
        record = self.latest_record()
        assert record is not None
        return record.status is AddressStatus.FREE
