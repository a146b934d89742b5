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

from typing import Callable, Iterable, List, Set

MIN_REPLICAS = 3  # below this, start growing replicas again (Section V-B)


class QDSet:
    """An ordered, deduplicated set of adjacent cluster-head ids.

    ``version`` counts the changes to the members or the suspects, so a
    reader can tell that the set is as it last saw it without copying
    it, and each change calls ``changed`` (the owning head's audit
    wake, which the head setter installs)."""

    def __init__(self, members: Iterable[int] = ()) -> None:
        self._members: Set[int] = set(members)
        self._suspected: Set[int] = set()
        self.version = 0
        self.changed: Callable[[], None] = lambda: None

    def _bump(self) -> None:
        self.version += 1
        self.changed()

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
        self._bump()
        return True

    def remove(self, head_id: int) -> bool:
        """Drop a member (graceful resignation or quorum shrink)."""
        if head_id in self._members:
            self._members.discard(head_id)
            self._suspected.discard(head_id)
            self._bump()
            return True
        return False

    def suspect(self, head_id: int) -> None:
        """Mark a member unresponsive (pending ``T_d`` expiry)."""
        if head_id in self._members and head_id not in self._suspected:
            self._suspected.add(head_id)
            self._bump()

    def clear_suspicion(self, head_id: int) -> None:
        if head_id in self._suspected:
            self._suspected.discard(head_id)
            self._bump()

    def suspected(self) -> List[int]:
        return sorted(self._suspected)

    def needs_regrow(self) -> bool:
        """Section V-B: grow replicas when fewer than MIN_REPLICAS remain."""
        return len(self._members) < MIN_REPLICAS
