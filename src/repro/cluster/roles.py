"""Node roles and the cluster-head decision rule."""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple


class Role(enum.Enum):
    UNCONFIGURED = "unconfigured"
    REQUESTING = "requesting"
    COMMON = "common"
    HEAD = "head"


# The paper's structural constants (Sections I, II-B, IV-A).
HEAD_SCOPE_HOPS = 2     # a CH within 2 hops => join as common node
ADJACENT_HEAD_HOPS = 3  # QDSet members are CHs within 3 hops


def decide_role(
    heads_within_two: List[Tuple[int, int]],
) -> Tuple[Role, Optional[int]]:
    """Apply the clustering rule to an entering node.

    Args:
        heads_within_two: ``(head_id, hops)`` for cluster heads within
            :data:`HEAD_SCOPE_HOPS`, nearest first.

    Returns:
        ``(Role.COMMON, allocator_id)`` when a head is in scope,
        otherwise ``(Role.HEAD, None)`` — the node must become a head
        (configured remotely by its nearest head, Section IV-B).
    """
    if heads_within_two:
        return Role.COMMON, heads_within_two[0][0]
    return Role.HEAD, None

