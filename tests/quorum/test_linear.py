"""Dynamic linear voting (Section II-D) through ``is_quorum``."""

import itertools

from hypothesis import given, strategies as st

from repro.quorum import is_quorum


def test_majority_still_qualifies():
    assert is_quorum({1, 2, 3}, {1, 2, 3, 4}, distinguished=1)


def test_half_with_distinguished_qualifies():
    assert is_quorum({1, 2}, {1, 2, 3, 4}, distinguished=1)


def test_half_without_distinguished_fails():
    assert not is_quorum({3, 4}, {1, 2, 3, 4}, distinguished=1)


def test_odd_universe_ignores_distinguished_shortcut():
    assert not is_quorum({1}, {1, 2, 3}, distinguished=1)
    assert is_quorum({1, 2}, {1, 2, 3}, distinguished=1)


def test_no_distinguished_behaves_like_majority():
    assert not is_quorum({1, 2}, {1, 2, 3, 4}, distinguished=None)


def test_paper_example_adjusted_quorums():
    """Section II-D: with head 1 distinguished over {1..6}, {1,2,3} is a
    quorum (half containing the distinguished node)."""
    universe = {1, 2, 3, 4, 5, 6}
    assert is_quorum({1, 2, 3}, universe, distinguished=1)
    assert is_quorum({1, 4, 6}, universe, distinguished=1)
    assert not is_quorum({2, 3, 4}, universe, distinguished=1)  # no dist.


def test_required_with():
    """Votes needed: half of an even universe when the distinguished
    node is among them, a majority otherwise."""

    def required(size, has_distinguished):
        universe = set(range(1, size + 1))
        pool = sorted(universe if has_distinguished else universe - {1})
        return min(r for r in range(size + 1)
                   if is_quorum(set(pool[:r]), universe, distinguished=1))

    assert required(4, has_distinguished=True) == 2
    assert required(4, has_distinguished=False) == 3
    assert required(5, has_distinguished=True) == 3


@given(st.sets(st.integers(0, 12), min_size=2, max_size=8))
def test_linear_quorums_pairwise_intersect(universe):
    """Half-sets containing the distinguished node plus all majorities
    still form a quorum system (pairwise intersection)."""
    distinguished = min(universe)
    members = sorted(universe)
    quorums = []
    for r in range(1, len(members) + 1):
        for combo in itertools.combinations(members, r):
            if is_quorum(set(combo), universe, distinguished):
                quorums.append(set(combo))
    for a, b in itertools.combinations(quorums, 2):
        assert a & b, f"disjoint quorums {a}, {b} (dist={distinguished})"
