"""Allocation pools over address range sets.

An :class:`AddressPool` is the IPSpace of one allocator: two disjoint
range sets, ``free`` and ``allocated`` (the addresses it has handed
out).  The pool supports the operations the protocols need:

* ``allocate()`` — take one address for a common node;
* ``release(addr)`` — return an address (graceful departure / reclaim);
* ``absorb(start, end)`` — take in space handed over by another node;
* ``take_half()`` — split off a block of the free space for a newly
  configured cluster head (Section IV-B / the Buddy baseline [2]).

Blocks appear only where space changes hands (``take_half``,
``take_all``), derived on demand by :meth:`RangeSet.blocks`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.addrspace.block import Block
from repro.addrspace.ranges import RangeSet


class AddressPool:
    """One node's IPSpace: its free and allocated addresses."""

    def __init__(self, blocks: Iterable[Block] = ()) -> None:
        self.free = RangeSet((b.start, b.end) for b in blocks)
        self.allocated = RangeSet()

    def total_count(self) -> int:
        return len(self.free) + len(self.allocated)

    def owns(self, address: int) -> bool:
        """True if the address belongs to this pool (free or allocated)."""
        return address in self.allocated or address in self.free

    def allocate(self, preferred: Optional[int] = None) -> Optional[int]:
        """Take one free address (lowest available, or ``preferred``)."""
        address = self.free.first() if preferred is None else preferred
        if address is None or address not in self.free:
            return None
        self.free.remove(address, address + 1)
        self.allocated.add(address, address + 1)
        return address

    def allocate_many(self, count: int) -> List[int]:
        """Take the ``count`` lowest free addresses at once.

        Equivalent to ``count`` successive :meth:`allocate` calls, so
        bulk bootstrap paths can build a whole cluster's worth of
        assignments in one pass.  Returns fewer than ``count`` addresses
        (possibly none) when the pool runs dry.
        """
        taken: List[int] = []
        for start, end in self.free.ranges():
            stop = min(end, start + count - len(taken))
            if stop <= start:
                break
            taken.extend(range(start, stop))
            self.allocated.add(start, stop)
        if taken:
            # Every free address between the first and last taken is taken.
            self.free.remove(taken[0], taken[-1] + 1)
        return taken

    def release(self, address: int) -> bool:
        """Return an allocated address to the free set."""
        if address not in self.allocated:
            return False
        self.allocated.remove(address, address + 1)
        self.free.add(address, address + 1)
        return True

    def absorb(self, start: int, end: int) -> None:
        """Add ``[start, end)`` as free space, overlap-safely.

        Space received over the network — returned IP blocks, reclaimed
        ranges, a departed head's own address — may overlap what this
        pool already tracks: under churn the sender's view of ownership
        can lag ours.  Addresses already free stay free, and allocated
        ones stay allocated, never both.
        """
        self.free.add(start, end)
        for low, high in self.allocated.ranges(start, end):
            self.free.remove(low, high)

    def absorb_assigned(self, address: int) -> None:
        """Take ownership of an address that is already held by a node.

        Used when absorbing a departed allocator's space: the address
        stays assigned but this pool becomes responsible for it.
        """
        if address in self.free:
            # Should not happen, but never double-book an address.
            self.allocate(preferred=address)
            return
        self.allocated.add(address, address + 1)

    def take_half(self) -> Optional[Block]:
        """Donate a block of the free space to a new allocator.

        "The allocator assigns half its IP block" (Section IV-B).  Of
        the free space's buddy blocks, the largest (lowest start on a
        tie) is chosen.  When it is the only free block it is split and
        its upper half donated; otherwise it is donated whole.  That
        block need not be half the free space: free space {1, 3, 5, 7}
        is four unit blocks, and the donation is one address, a quarter.
        A fragmented pool thus founds a new head on a single address.

        Returns ``None`` when the free space is empty or one address (a
        single free address cannot be halved; the requester must borrow
        or be relayed instead, Section V-A).
        """
        block = max(self.free.blocks(), key=lambda b: (b.size, -b.start),
                    default=None)
        if block is None:
            return None
        if block.size == len(self.free):
            if block.size == 1:
                return None
            half = block.size // 2
            block = Block(block.start + half, half)
        self.free.remove(block.start, block.end)
        return block

    def take_all(self) -> List[Block]:
        """Remove and return every free block (graceful CH departure)."""
        blocks = list(self.free.blocks())
        self.free = RangeSet()
        return blocks

    def __repr__(self) -> str:
        return (
            f"AddressPool(free={len(self.free)}, "
            f"allocated={len(self.allocated)})"
        )
