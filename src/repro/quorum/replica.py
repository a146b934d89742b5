"""Replica stores.

Each cluster head stores a physical copy of every adjacent cluster
head's IP space (Section II-C).  A :class:`Replica` is one such copy —
the owner's block list plus a timestamped ledger; a
:class:`ReplicaStore` is the set of replicas one node holds (its
QuorumSpace, Section IV-A).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.addrspace.block import Block
from repro.addrspace.records import AddressLedger, AddressStatus


class Replica:
    """One node's copy of another allocator's IP space.

    ``holders`` is the owner's QDSet at distribution time — i.e. the set
    of nodes expected to hold a copy of this same replica.  Reclamation
    uses it to elect a single absorber deterministically (lowest
    surviving holder id) without extra coordination.
    """

    def __init__(self, owner: int, blocks: List[Block],
                 holders: Optional[Set[int]] = None, version: int = 0) -> None:
        self.owner = owner
        self.blocks = list(blocks)
        self.ledger = AddressLedger()
        self.holders = set(holders or ())
        # Owner-issued snapshot version: a replica's block list (the
        # owner's IPSpace extent) may only move forward.  Without this,
        # a holder that missed the refresh following a block grant
        # would still believe the owner holds the donated range.
        self.version = version

    def covers(self, address: int) -> bool:
        return any(b.contains(address) for b in self.blocks)

    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    def free_addresses(self) -> Iterator[int]:
        """Addresses this replica believes are free (latest local view)."""
        for block in self.blocks:
            for address in block.addresses():
                record = self.ledger.peek(address)
                if record is None or record.status is AddressStatus.FREE:
                    yield address

    def copy(self) -> "Replica":
        clone = Replica(self.owner, self.blocks, holders=self.holders,
                        version=self.version)
        clone.ledger.merge(self.ledger)
        return clone


class ReplicaStore:
    """The QuorumSpace of a cluster head: replicas keyed by owner id."""

    def __init__(self) -> None:
        self._replicas: Dict[int, Replica] = {}

    def install(self, replica: Replica) -> None:
        """Install or refresh the replica for ``replica.owner``.

        An existing ledger is merged (latest timestamp wins) so that
        refreshes never roll back newer knowledge.
        """
        existing = self._replicas.get(replica.owner)
        if existing is None:
            self._replicas[replica.owner] = replica.copy()
        else:
            if replica.version >= existing.version:
                existing.blocks = list(replica.blocks)
                existing.version = replica.version
                if replica.holders:
                    existing.holders = set(replica.holders)
            existing.ledger.merge(replica.ledger)

    def drop(self, owner: int) -> Optional[Replica]:
        return self._replicas.pop(owner, None)

    def get(self, owner: int) -> Optional[Replica]:
        return self._replicas.get(owner)

    def owners(self) -> List[int]:
        return sorted(self._replicas)

    def find_covering(self, address: int) -> Optional[Replica]:
        """The replica whose block list covers ``address``, if any."""
        for replica in self._replicas.values():
            if replica.covers(address):
                return replica
        return None

    def total_size(self) -> int:
        """Total replicated address count (the QuorumSpace size)."""
        return sum(r.size() for r in self._replicas.values())

    def items(self) -> Iterator[Tuple[int, Replica]]:
        return iter(self._replicas.items())

    def __len__(self) -> int:
        return len(self._replicas)

    def __contains__(self, owner: int) -> bool:
        return owner in self._replicas
