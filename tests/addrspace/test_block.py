"""Unit and property tests for buddy blocks.

The contains / split / buddy / merge algebra lives only in the
reference pool now (the range-set pool derives its blocks instead);
its tests stay here because the pool's differential test trusts that
reference.
"""

import pytest
from hypothesis import given, strategies as st

from repro.addrspace import Block

from tests.addrspace.reference_pool import buddy, contains, merge, split


def test_valid_block():
    block = Block(0, 8)
    assert block.end == 8
    assert contains(block, 0) and contains(block, 7)
    assert not contains(block, 8)


def test_size_must_be_power_of_two():
    with pytest.raises(ValueError):
        Block(0, 3)
    with pytest.raises(ValueError):
        Block(0, 0)


def test_start_must_be_aligned():
    with pytest.raises(ValueError):
        Block(4, 8)
    Block(8, 8)  # aligned: fine


def test_negative_start_rejected():
    with pytest.raises(ValueError):
        Block(-8, 8)


def test_split_produces_buddies():
    low, high = split(Block(0, 8))
    assert low == Block(0, 4)
    assert high == Block(4, 4)
    assert buddy(low) == high
    assert buddy(high) == low


def test_split_unit_block_raises():
    with pytest.raises(ValueError):
        split(Block(0, 1))


def test_buddy_direction():
    assert buddy(Block(0, 4)) == Block(4, 4)
    assert buddy(Block(4, 4)) == Block(0, 4)


def test_merge_buddies():
    assert merge(Block(0, 4), Block(4, 4)) == Block(0, 8)
    assert merge(Block(4, 4), Block(0, 4)) == Block(0, 8)


def test_merge_non_buddies_raises():
    with pytest.raises(ValueError):
        merge(Block(0, 4), Block(8, 4))
    with pytest.raises(ValueError):
        merge(Block(0, 4), Block(8, 8))


def test_addresses_iterates_range():
    assert list(Block(4, 4).addresses()) == [4, 5, 6, 7]


sizes = st.integers(min_value=1, max_value=10).map(lambda k: 1 << k)


@given(sizes, st.integers(min_value=0, max_value=63))
def test_split_partitions_block(size, index):
    block = Block(index * size, size)
    if size == 1:
        return
    low, high = split(block)
    assert low.size == high.size == size // 2
    assert set(low.addresses()) | set(high.addresses()) == set(block.addresses())
    assert not set(low.addresses()) & set(high.addresses())


@given(sizes, st.integers(min_value=0, max_value=63))
def test_split_then_merge_roundtrip(size, index):
    block = Block(index * size, size)
    if size == 1:
        return
    low, high = split(block)
    assert merge(low, high) == block


@given(sizes, st.integers(min_value=0, max_value=63))
def test_buddy_is_involutive(size, index):
    block = Block(index * size, size)
    assert buddy(buddy(block)) == block
