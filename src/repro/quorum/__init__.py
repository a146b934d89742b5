"""Quorum decisions, voting and replica management.

Implements the consistency-control core of the paper (Sections II-C and
II-D): the one quorum rule over a cluster head's QDSet — a strict
majority (``w > v/2``), or under dynamic linear voting half of an even
universe that holds the distinguished node — vote collection with
latest-timestamp resolution, and the replica store each cluster head
keeps for its adjacent cluster heads' IP spaces.
"""

from repro.quorum.voting import Vote, VoteCollector, is_quorum
from repro.quorum.replica import Replica, ReplicaStore

__all__ = [
    "is_quorum",
    "Vote",
    "VoteCollector",
    "Replica",
    "ReplicaStore",
]
