"""Unit and property tests for address range sets."""

from hypothesis import given, settings, strategies as st

from repro.addrspace import Block, RangeSet


def test_add_merges_overlapping_and_touching_ranges():
    ranges = RangeSet([(0, 2), (5, 7)])
    ranges.add(2, 3)            # touches [0, 2)
    ranges.add(6, 10)           # overlaps [5, 7)
    assert ranges.ranges() == [(0, 3), (5, 10)]
    ranges.add(3, 5)            # bridges the gap
    assert ranges.ranges() == [(0, 10)]
    assert len(ranges) == 10


def test_remove_splits_and_ignores_absent_addresses():
    ranges = RangeSet([(0, 10)])
    ranges.remove(3, 5)
    assert ranges.ranges() == [(0, 3), (5, 10)]
    ranges.remove(4, 6)         # 4 is already gone
    assert ranges.ranges() == [(0, 3), (6, 10)]
    ranges.remove(20, 30)
    assert len(ranges) == 7


def test_empty_ranges_are_ignored():
    ranges = RangeSet()
    ranges.add(4, 4)
    ranges.remove(5, 2)
    assert len(ranges) == 0 and ranges.first() is None
    assert list(ranges.blocks()) == []


def test_membership_first_and_iteration():
    ranges = RangeSet([(8, 10), (2, 4)])
    assert ranges.first() == 2
    assert 3 in ranges and 8 in ranges
    assert 4 not in ranges and 10 not in ranges and 0 not in ranges
    assert list(ranges) == [2, 3, 8, 9]


def test_ranges_clipped_to_a_window():
    ranges = RangeSet([(0, 4), (6, 8), (10, 16)])
    assert ranges.ranges(2, 12) == [(2, 4), (6, 8), (10, 12)]
    assert ranges.ranges(4, 6) == []


def test_blocks_are_the_buddy_decomposition():
    assert list(RangeSet([(0, 16)]).blocks()) == [Block(0, 16)]
    assert list(RangeSet([(1, 8)]).blocks()) == [
        Block(1, 1), Block(2, 2), Block(4, 4)]
    assert list(RangeSet([(3, 13)]).blocks()) == [
        Block(3, 1), Block(4, 4), Block(8, 4), Block(12, 1)]
    # Free space {1, 3, 5, 7}: four unit blocks.
    odd = RangeSet((a, a + 1) for a in (1, 3, 5, 7))
    assert [b.size for b in odd.blocks()] == [1, 1, 1, 1]


operations = st.lists(
    st.tuples(st.booleans(), st.integers(0, 63), st.integers(0, 12)),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_matches_a_set_of_ints(ops):
    ranges, model = RangeSet(), set()
    for add, start, length in ops:
        if add:
            ranges.add(start, start + length)
            model.update(range(start, start + length))
        else:
            ranges.remove(start, start + length)
            model.difference_update(range(start, start + length))
        assert list(ranges) == sorted(model)
        assert len(ranges) == len(model)
        assert ranges.first() == (min(model) if model else None)
        bounds = ranges.ranges()
        # Maximal: no two ranges touch.
        assert all(e < s for (_, e), (s, _) in zip(bounds, bounds[1:]))
        blocks = list(ranges.blocks())
        assert [a for b in blocks for a in b.addresses()] == sorted(model)
        # Maximal blocks: no block's aligned parent lies inside the set.
        for block in blocks:
            parent = block.start - block.start % (2 * block.size)
            assert not model.issuperset(range(parent, parent + 2 * block.size))
    for address in range(80):
        assert (address in ranges) == (address in model)
