"""Address borrowing (Section V-A).

A cluster head "first configures new nodes with addresses in IPSpace.
Once it runs out of addresses in IPSpace, it starts to use addresses in
QuorumSpace as long as enough votes from a quorum can be collected."
This module picks the candidate address for a configuration attempt.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.core.state import HeadState


def select_candidate(
    head: HeadState,
    reserved: Set[int],
    borrowing_enabled: bool,
) -> Optional[Tuple[int, Optional[int]]]:
    """Choose an address to propose.

    Args:
        head: the allocator's state.
        reserved: addresses already proposed in other in-flight attempts
            (never re-proposed concurrently).
        borrowing_enabled: whether QuorumSpace addresses may be used.

    Returns:
        ``(address, owner_id)`` where ``owner_id`` is ``None`` for the
        allocator's own IPSpace, or the replica owner's node id when
        borrowing; ``None`` when nothing is available.
    """
    for address in head.pool.free:
        if address not in reserved:
            return address, None
    if not borrowing_enabled:
        return None
    # Borrow only from owners still in the quorum set: the owner's own
    # vote is required to serialize concurrent borrowers.
    active = set(head.qdset.active_members())
    for owner in head.replicas.owners():
        if owner not in active:
            continue
        replica = head.replicas.get(owner)
        assert replica is not None
        for address in replica.free_addresses():
            if address not in reserved:
                return address, owner
    return None
