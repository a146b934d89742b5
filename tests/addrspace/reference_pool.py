"""The buddy free-list pool that :mod:`repro.addrspace.pool` replaced.

Kept verbatim (bar the block algebra, which :class:`Block` no longer
carries, and the class name) as the reference that
``test_pool_stateful.py`` drives side by side with the range-set pool.

A :class:`ReferencePool` is the IPSpace of one allocator: a set of free
buddy blocks plus the individual addresses it has handed out.  All free
space is represented as maximally-coalesced buddy blocks (a freed single
address is a unit block that merges with its buddy recursively), so the
pool supports the three operations the protocols need:

* ``allocate()`` — take one address for a common node;
* ``release(addr)`` — return an address (graceful departure / reclaim);
* ``take_half()`` — split off half of the largest free block for a newly
  configured cluster head (Section IV-B / the Buddy baseline [2]).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.addrspace.block import Block


def contains(block: Block, address: int) -> bool:
    return block.start <= address < block.end


def split(block: Block) -> Tuple[Block, Block]:
    """Split into (lower, upper) buddies."""
    if block.size == 1:
        raise ValueError("cannot split a unit block")
    half = block.size // 2
    return Block(block.start, half), Block(block.start + half, half)


def buddy(block: Block) -> Block:
    """The sibling block ``block`` merges with."""
    if block.start % (block.size * 2) == 0:
        return Block(block.start + block.size, block.size)
    return Block(block.start - block.size, block.size)


def merge(block: Block, other: Block) -> Block:
    """Merge two buddies into their parent block."""
    if block.size != other.size or other != buddy(block):
        raise ValueError(f"{block} and {other} are not buddies")
    return Block(min(block.start, other.start), block.size * 2)


class ReferencePool:
    """Free-list buddy allocator for one node's IPSpace."""

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self._free_blocks: List[Block] = []
        self._allocated: Set[int] = set()
        for block in blocks:
            self.add_block(block)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def allocated(self) -> Set[int]:
        return set(self._allocated)

    def allocated_count(self) -> int:
        """Addresses handed out, without copying the set (cheap read)."""
        return len(self._allocated)

    def free_count(self) -> int:
        return sum(b.size for b in self._free_blocks)

    def total_count(self) -> int:
        return self.free_count() + len(self._allocated)

    def owns(self, address: int) -> bool:
        """True if the address belongs to this pool (free or allocated)."""
        if address in self._allocated:
            return True
        return any(contains(b, address) for b in self._free_blocks)

    def free_blocks(self) -> List[Block]:
        return sorted(self._free_blocks)

    def snapshot_blocks(self) -> List[Block]:
        """Every address this pool owns, as blocks (free + allocated).

        This is the block list shipped in replica snapshots: replicas
        must cover the whole IPSpace, not just its free part.
        """
        blocks = sorted(self._free_blocks)
        blocks.extend(Block(a, 1) for a in sorted(self._allocated))
        return blocks

    def peek_free(self) -> Optional[int]:
        """Lowest free address without allocating it."""
        if not self._free_blocks:
            return None
        return min(b.start for b in self._free_blocks)

    def free_addresses(self) -> List[int]:
        """All free addresses, ascending (small pools only — O(size))."""
        addresses: List[int] = []
        for block in self._free_blocks:
            addresses.extend(block.addresses())
        return sorted(addresses)

    def is_free(self, address: int) -> bool:
        return any(contains(b, address) for b in self._free_blocks)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> None:
        """Add a whole free block, coalescing buddies recursively."""
        while True:
            sibling = buddy(block)
            if sibling in self._free_blocks:
                self._free_blocks.remove(sibling)
                block = merge(block, sibling)
            else:
                break
        self._free_blocks.append(block)

    def allocate(self, preferred: Optional[int] = None) -> Optional[int]:
        """Take one free address (lowest available, or ``preferred``)."""
        if preferred is not None:
            for block in list(self._free_blocks):
                if contains(block, preferred):
                    self._carve_single(block, preferred)
                    self._allocated.add(preferred)
                    return preferred
            return None
        if not self._free_blocks:
            return None
        block = min(self._free_blocks, key=lambda b: b.start)
        address = block.start
        self._carve_single(block, address)
        self._allocated.add(address)
        return address

    def allocate_many(self, count: int) -> List[int]:
        """Take the ``count`` lowest free addresses in one carve pass.

        Equivalent to ``count`` successive :meth:`allocate` calls — same
        addresses, same remaining free-block structure (the buddy
        decomposition of each block's unconsumed suffix) — but without
        the per-address block scan, so bulk bootstrap paths can build a
        whole cluster's worth of assignments at once.  Returns fewer
        than ``count`` addresses (possibly none) when the pool runs dry.
        """
        taken: List[int] = []
        while len(taken) < count and self._free_blocks:
            block = min(self._free_blocks, key=lambda b: b.start)
            self._free_blocks.remove(block)
            need = count - len(taken)
            while block.size > need:
                low, high = split(block)
                self._free_blocks.append(high)
                block = low
            taken.extend(range(block.start, block.start + block.size))
        self._allocated.update(taken)
        return taken

    def _carve_single(self, block: Block, address: int) -> None:
        """Remove ``address`` from ``block``, keeping the rest free."""
        self._free_blocks.remove(block)
        while block.size > 1:
            low, high = split(block)
            if contains(low, address):
                self._free_blocks.append(high)
                block = low
            else:
                self._free_blocks.append(low)
                block = high
        # block is now the unit block at ``address``; the caller marks
        # the address allocated or hands it out.

    def release(self, address: int) -> bool:
        """Return an allocated address to the free set."""
        if address not in self._allocated:
            return False
        self._allocated.discard(address)
        self.add_block(Block(address, 1))
        return True

    def absorb_free(self, address: int) -> None:
        """Add a single free address that this pool did not allocate.

        Used when reclaiming leaked addresses or receiving returned
        space from another allocator.
        """
        if address in self._allocated or self.is_free(address):
            return
        self.add_block(Block(address, 1))

    def absorb_assigned(self, address: int) -> None:
        """Take ownership of an address that is already held by a node.

        Used when absorbing a departed allocator's space: the address
        stays assigned but this pool becomes responsible for it.
        """
        if self.is_free(address):
            # Should not happen, but never double-book an address.
            self.allocate(preferred=address)
            return
        self._allocated.add(address)

    def absorb_free_many(self, addresses: Iterable[int]) -> None:
        """Bulk variant of :meth:`absorb_free`."""
        for address in addresses:
            self.absorb_free(address)

    def absorb_block(self, block: Block) -> None:
        """Add a block received from another node, overlap-safely.

        Unlike :meth:`add_block` (which trusts the caller that the block
        is disjoint from the pool), this skips any address the pool
        already tracks.  Space received over the network — returned
        IP blocks, reclaimed ranges — must use this: under churn the
        sender's view of ownership can lag ours, and blindly adding an
        overlapping block would make addresses simultaneously free and
        allocated.
        """
        for address in block.addresses():
            self.absorb_free(address)

    def take_half(self) -> Optional[Block]:
        """Donate (roughly) half the free space to a new allocator.

        "The allocator assigns half its IP block" (Section IV-B).  When
        the free space is a single buddy block, it is split and one half
        donated; otherwise the largest free block — which, in a buddy
        pool, holds at least half the free space — is donated whole.

        Returns the donated block, or ``None`` when nothing splittable
        remains (a single free address cannot be halved; the requester
        must borrow or be relayed instead, Section V-A).
        """
        if not self._free_blocks:
            return None
        block = max(self._free_blocks, key=lambda b: (b.size, -b.start))
        if block.size == self.free_count():
            # Sole free block: split it, keep one half.
            if block.size == 1:
                return None
            self._free_blocks.remove(block)
            keep, give = split(block)
            self._free_blocks.append(keep)
            return give
        if block.size == 1 and self.free_count() <= 1:
            return None
        self._free_blocks.remove(block)
        return block

    def take_all(self) -> List[Block]:
        """Remove and return every free block (graceful CH departure)."""
        blocks = sorted(self._free_blocks)
        self._free_blocks = []
        return blocks

    def __repr__(self) -> str:
        return (
            f"ReferencePool(free={self.free_count()}, "
            f"allocated={len(self._allocated)})"
        )
