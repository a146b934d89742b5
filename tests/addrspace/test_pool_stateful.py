"""Stateful differential testing of the range-set allocation pool.

A hypothesis rule-based state machine drives the pool and the buddy
free-list pool it replaced (``reference_pool.ReferencePool``) through
the same interleavings of allocate / allocate_many / release /
take_half / take_all / absorb / absorb_assigned.  Every step must
return the same value from both, and after every step both must hold
the same free blocks, the same allocated set and the same replica
snapshot (the order a replica walks the owner's addresses).  The
allocator's own invariants are checked alongside.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
import hypothesis.strategies as st

from repro.addrspace import AddressPool, Block
from repro.quorum import Replica

from tests.addrspace.reference_pool import ReferencePool

SPACE = 64

addresses = st.integers(0, SPACE - 1)


class PoolMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.pool = AddressPool([Block(0, SPACE)])
        self.reference = ReferencePool([Block(0, SPACE)])
        self.donations = []     # blocks handed to "other allocators"
        self.donated = set()    # their addresses not yet taken back
        self.model_allocated = set()

    def _donate(self, blocks):
        for block in blocks:
            self.donations.append(block)
            self.donated.update(block.addresses())

    # ------------------------------------------------------------------
    @rule()
    def allocate(self):
        address = self.pool.allocate()
        assert address == self.reference.allocate()
        if address is not None:
            assert address not in self.model_allocated
            self.model_allocated.add(address)
        else:
            assert len(self.pool.free) == 0

    @rule(address=addresses)
    def allocate_preferred(self, address):
        result = self.pool.allocate(preferred=address)
        assert result == self.reference.allocate(preferred=address)
        if result is not None:
            assert result == address
            assert address not in self.model_allocated
            self.model_allocated.add(address)

    @rule(count=st.integers(0, 20))
    def allocate_many(self, count):
        taken = self.pool.allocate_many(count)
        assert taken == self.reference.allocate_many(count)
        assert not self.model_allocated & set(taken)
        self.model_allocated.update(taken)

    @rule(address=addresses)
    def release(self, address):
        ok = self.pool.release(address)
        assert ok == self.reference.release(address)
        assert ok == (address in self.model_allocated)
        self.model_allocated.discard(address)

    @rule()
    def take_half(self):
        before = len(self.pool.free)
        block = self.pool.take_half()
        assert block == self.reference.take_half()
        if block is not None:
            self._donate([block])
            assert len(self.pool.free) == before - block.size
            assert block.size <= before

    @rule()
    def take_all(self):
        blocks = self.pool.take_all()
        assert blocks == self.reference.take_all()
        self._donate(blocks)
        assert len(self.pool.free) == 0

    @rule()
    def return_a_donation(self):
        if self.donations:
            block = self.donations.pop()
            self.pool.absorb(block.start, block.end)
            self.reference.absorb_block(block)
            self.donated.difference_update(block.addresses())

    @rule(start=addresses, length=st.integers(1, 16))
    def absorb_overlapping(self, start, length):
        """Space whose sender's view lags ours: it may overlap free,
        allocated and donated addresses alike."""
        end = min(start + length, SPACE)
        self.pool.absorb(start, end)
        self.reference.absorb_free_many(range(start, end))
        self.donated.difference_update(range(start, end))

    @rule(address=addresses)
    def absorb_assigned(self, address):
        self.pool.absorb_assigned(address)
        self.reference.absorb_assigned(address)
        self.donated.discard(address)
        self.model_allocated.add(address)

    # ------------------------------------------------------------------
    @invariant()
    def matches_reference(self):
        assert list(self.pool.free.blocks()) == self.reference.free_blocks()
        assert set(self.pool.allocated) == self.reference.allocated
        assert len(self.pool.free) == self.reference.free_count()
        assert self.pool.total_count() == self.reference.total_count()

    @invariant()
    def replica_walks_the_reference_snapshot(self):
        snapshot = [address for block in self.reference.snapshot_blocks()
                    for address in block.addresses()]
        replica = Replica(0, self.pool.free.ranges(),
                          self.pool.allocated.ranges())
        assert list(replica.addresses()) == snapshot

    @invariant()
    def space_partitioned(self):
        free, allocated = set(self.pool.free), set(self.pool.allocated)
        assert not free & allocated
        assert not (free | allocated) & self.donated
        assert free | allocated | self.donated == set(range(SPACE))

    @invariant()
    def model_agreement(self):
        assert set(self.pool.allocated) == self.model_allocated

    @invariant()
    def free_blocks_are_disjoint_and_aligned(self):
        seen = set()
        for block in self.pool.free.blocks():
            addresses = set(block.addresses())
            assert not (addresses & seen)
            seen |= addresses
            assert block.start % block.size == 0


PoolMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=60, deadline=None)
TestPoolMachine = PoolMachine.TestCase
