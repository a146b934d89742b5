"""Per-node protocol state (Section IV-A data structures)."""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.addrspace.block import Block
from repro.addrspace.pool import AddressPool
from repro.addrspace.records import AddressLedger
from repro.cluster.qdset import QDSet
from repro.quorum.replica import ReplicaStore


@dataclasses.dataclass
class CommonState:
    """State of a configured common node.

    Attributes:
        ip: the node's configured address.
        configurer_id / configurer_ip: the cluster head that configured
            this node; addresses are returned to it on departure.
        administrator_id: the cluster head currently administering this
            node after it moved more than three hops from its configurer
            (Section IV-C-1); ``None`` while still near the configurer.
    """

    ip: int
    configurer_id: int
    configurer_ip: int
    administrator_id: Optional[int] = None


class HeadState:
    """State of a cluster head.

    * ``pool`` — the head's IPSpace (free blocks + addresses handed out);
    * ``ledger`` — the authoritative timestamped records for every
      address in the IPSpace;
    * ``qdset`` — adjacent cluster heads within three hops;
    * ``replicas`` — the QuorumSpace: copies of QDSet members' spaces;
    * ``configured`` — members this head configured (ip -> node id),
      used for allocator-change notifications and reclamation replies.

    Every head is founded the same way — the first head and a
    re-founding head on the whole space, a granted head on its block,
    a bootstrapped head on its share: it owns ``block`` and has
    assigned the block's first address to itself (``node_id``).
    """

    def __init__(self, block: Block, node_id: int,
                 configurer_id: Optional[int] = None,
                 configurer_ip: Optional[int] = None) -> None:
        self.ip = block.start
        self.pool = AddressPool([block])
        self.pool.allocate(block.start)
        self.ledger = AddressLedger()
        self.ledger.mark_assigned(block.start, node_id)
        self.qdset = QDSet()
        self.replicas = ReplicaStore()
        self.configured: Dict[int, int] = {}
        self.configurer_id = configurer_id
        self.configurer_ip = configurer_ip
        # Monotone snapshot version stamped on every replica snapshot
        # this head distributes (see repro.quorum.replica.Replica).
        self.snapshot_version = 0

    # ------------------------------------------------------------------
    def ip_space_size(self) -> int:
        return self.pool.total_count()

    def quorum_space_size(self) -> int:
        return self.replicas.total_size()
