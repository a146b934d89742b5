"""QDSet — the adjacent-cluster-head set of a cluster head.

Section IV-A: "Each cluster head U maintains the routes to the cluster
heads in its QDSet, which contains adjacent cluster heads of U within
three hops.  QDSet is initialized during configuration and updated
whenever new votes are distributed."

Section V-B adds quorum adjustment: members that stop responding are
(after timer ``T_d``) excluded; when the set shrinks below
``MIN_REPLICAS`` the head recruits new replicas.
"""

from __future__ import annotations

from typing import Iterable, List, Set

MIN_REPLICAS = 3  # below this, start growing replicas again (Section V-B)


class QDSet:
    """An ordered, deduplicated set of adjacent cluster-head ids."""

    def __init__(self, members: Iterable[int] = ()) -> None:
        self._members: Set[int] = set(members)
        self._suspected: Set[int] = set()

    # ------------------------------------------------------------------
    def members(self) -> List[int]:
        return sorted(self._members)

    def active_members(self) -> List[int]:
        """Members not currently suspected of having departed."""
        return sorted(self._members - self._suspected)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, head_id: int) -> bool:
        return head_id in self._members

    # ------------------------------------------------------------------
    def add(self, head_id: int) -> bool:
        """Add a newly discovered adjacent head; True if new."""
        if head_id in self._members:
            return False
        self._members.add(head_id)
        self._suspected.discard(head_id)
        return True

    def remove(self, head_id: int) -> bool:
        """Drop a member (graceful resignation or quorum shrink)."""
        self._suspected.discard(head_id)
        if head_id in self._members:
            self._members.discard(head_id)
            return True
        return False

    def suspect(self, head_id: int) -> None:
        """Mark a member unresponsive (pending ``T_d`` expiry)."""
        if head_id in self._members:
            self._suspected.add(head_id)

    def clear_suspicion(self, head_id: int) -> None:
        self._suspected.discard(head_id)

    def suspected(self) -> List[int]:
        return sorted(self._suspected)

    def needs_regrow(self) -> bool:
        """Section V-B: grow replicas when fewer than MIN_REPLICAS remain."""
        return len(self._members) < MIN_REPLICAS
