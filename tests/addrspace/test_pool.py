"""Unit and property tests for the range-set allocation pool."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.addrspace import AddressPool, Block


def pool_of(size=16):
    return AddressPool([Block(0, size)])


def test_initial_counts():
    pool = pool_of(16)
    assert len(pool.free) == 16
    assert pool.total_count() == 16
    assert len(pool.allocated) == 0


def test_allocate_lowest_first():
    pool = pool_of(8)
    assert pool.allocate() == 0
    assert pool.allocate() == 1
    assert len(pool.free) == 6


def test_allocate_preferred():
    pool = pool_of(8)
    assert pool.allocate(preferred=5) == 5
    assert 5 in pool.allocated
    assert pool.allocate(preferred=5) is None  # already taken


def test_allocate_exhaustion():
    pool = pool_of(2)
    assert pool.allocate() == 0
    assert pool.allocate() == 1
    assert pool.allocate() is None


def test_release_and_reallocate():
    pool = pool_of(4)
    a = pool.allocate()
    assert pool.release(a)
    assert len(pool.free) == 4
    assert pool.allocate() == a


def test_release_unallocated_returns_false():
    assert not pool_of(4).release(2)


def test_owns_and_is_free():
    pool = pool_of(8)
    a = pool.allocate()
    assert pool.owns(a)
    assert a not in pool.free
    assert pool.owns(5) and 5 in pool.free
    assert not pool.owns(8)


def test_take_half_halves_largest_block():
    pool = pool_of(16)
    given_block = pool.take_half()
    assert given_block == Block(8, 8)
    assert len(pool.free) == 8
    assert pool.owns(0) and not pool.owns(8)


def test_take_half_until_unit():
    pool = pool_of(8)
    sizes = []
    while True:
        block = pool.take_half()
        if block is None:
            break
        sizes.append(block.size)
    assert sizes == [4, 2, 1]
    assert len(pool.free) == 1  # the unit block cannot be halved


def test_take_half_empty_pool():
    assert AddressPool().take_half() is None


def test_absorb_coalesces_buddies():
    pool = AddressPool([Block(0, 4)])
    pool.absorb(4, 8)
    assert list(pool.free.blocks()) == [Block(0, 8)]


def test_absorb_skips_tracked_addresses():
    pool = pool_of(8)
    pool.allocate(preferred=5)
    pool.absorb(4, 12)
    assert 5 in pool.allocated and 5 not in pool.free
    assert pool.free.ranges() == [(0, 5), (6, 12)]
    assert len(pool.free) == 11


def test_release_coalesces_singles():
    pool = pool_of(4)
    a = pool.allocate()  # 0
    b = pool.allocate()  # 1
    pool.release(a)
    pool.release(b)
    assert list(pool.free.blocks()) == [Block(0, 4)]
    assert len(pool.free) == 4


def test_absorb_singles_coalesce():
    pool = AddressPool()
    for address in (2, 0, 3, 1):
        pool.absorb(address, address + 1)
    assert len(pool.free) == 4
    assert list(pool.free.blocks()) == [Block(0, 4)]


def test_absorb_assigned_tracks_ownership():
    pool = AddressPool()
    pool.absorb_assigned(9)
    assert 9 in pool.allocated
    assert pool.owns(9)
    assert pool.release(9)
    assert 9 in pool.free


def test_take_all_empties_free_space():
    pool = pool_of(8)
    pool.allocate()
    blocks = pool.take_all()
    assert sum(b.size for b in blocks) == 7
    assert len(pool.free) == 0
    assert len(pool.allocated) == 1


def test_free_and_allocated_cover_everything():
    pool = pool_of(8)
    a = pool.allocate()
    assert pool.free.ranges() + pool.allocated.ranges() == [(1, 8), (0, 1)]
    assert a in pool.allocated


def test_peek_free():
    pool = pool_of(4)
    assert pool.free.first() == 0
    pool.allocate()
    assert pool.free.first() == 1
    # peek does not allocate
    assert pool.free.first() == 1


def test_free_iterates_ascending():
    pool = pool_of(4)
    pool.allocate(preferred=1)
    pool.release(pool.allocate(preferred=3))
    assert list(pool.free) == [0, 2, 3]


def test_allocate_many_matches_repeated_allocate():
    bulk = pool_of(16)
    loop = pool_of(16)
    taken = bulk.allocate_many(5)
    assert taken == [loop.allocate() for _ in range(5)]
    assert bulk.allocated.ranges() == loop.allocated.ranges()
    assert bulk.free.ranges() == loop.free.ranges()


def test_allocate_many_after_fragmentation():
    bulk = pool_of(16)
    loop = pool_of(16)
    for pool in (bulk, loop):
        pool.allocate(preferred=1)
        pool.allocate(preferred=6)
    taken = bulk.allocate_many(7)
    assert taken == [loop.allocate() for _ in range(7)]
    assert bulk.free.ranges() == loop.free.ranges()


def test_allocate_many_short_return_when_dry():
    pool = pool_of(4)
    assert pool.allocate_many(10) == [0, 1, 2, 3]
    assert len(pool.free) == 0
    assert pool.allocate_many(1) == []


def test_allocate_many_zero_is_noop():
    pool = pool_of(8)
    assert pool.allocate_many(0) == []
    assert len(pool.free) == 8
    assert list(pool.free.blocks()) == [Block(0, 8)]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 40), st.sets(st.integers(0, 31), max_size=10))
def test_allocate_many_property_equivalence(count, holes):
    bulk = AddressPool([Block(0, 32)])
    loop = AddressPool([Block(0, 32)])
    for a in sorted(holes):
        bulk.allocate(preferred=a)
        loop.allocate(preferred=a)
    taken = bulk.allocate_many(count)
    expected = []
    for _ in range(count):
        a = loop.allocate()
        if a is None:
            break
        expected.append(a)
    assert taken == expected
    assert bulk.allocated.ranges() == loop.allocated.ranges()
    assert bulk.free.ranges() == loop.free.ranges()


# ---------------------------------------------------------------------------
# Property: conservation — free + allocated always equals the original
# space, through arbitrary operation sequences.
# ---------------------------------------------------------------------------
operations = st.lists(
    st.one_of(
        st.just(("alloc",)),
        st.builds(lambda a: ("release", a), st.integers(0, 31)),
        st.just(("take_half",)),
        st.builds(lambda a: ("alloc_pref", a), st.integers(0, 31)),
    ),
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(operations)
def test_conservation_under_operations(ops):
    pool = AddressPool([Block(0, 32)])
    donated = 0
    for op in ops:
        if op[0] == "alloc":
            pool.allocate()
        elif op[0] == "alloc_pref":
            pool.allocate(preferred=op[1])
        elif op[0] == "release":
            pool.release(op[1])
        elif op[0] == "take_half":
            block = pool.take_half()
            if block is not None:
                donated += block.size
    assert len(pool.free) + len(pool.allocated) + donated == 32
    # No address is both free and allocated.
    for address in pool.allocated:
        assert address not in pool.free


@settings(max_examples=50, deadline=None)
@given(st.sets(st.integers(0, 31), max_size=32))
def test_release_all_restores_full_pool(addresses):
    pool = AddressPool([Block(0, 32)])
    taken = []
    for a in sorted(addresses):
        if pool.allocate(preferred=a) is not None:
            taken.append(a)
    for a in taken:
        assert pool.release(a)
    assert len(pool.free) == 32
    assert list(pool.free.blocks()) == [Block(0, 32)]
