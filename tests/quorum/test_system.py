"""The one quorum rule against the paper: Definition 1 and Section II-C.

``is_quorum`` is checked two ways.  Unit cases pin the paper's worked
examples and the majority threshold.  The exhaustive cases enumerate
every universe of up to seven ids, every responder subset (including a
responder outside the universe) and every ``distinguished`` value (none,
each member, a non-member), and compare ``is_quorum`` with the paper's
conditions written out independently; they also check Definition 1
(any two quorums of one universe intersect) under both voting schemes.
Among the broken rules they catch: dropping the ``distinguished in
responders`` check, dropping the even-universe check, and ``>=`` in
place of ``>`` in the majority condition.
"""

import itertools

from hypothesis import given, strategies as st

from repro.quorum import is_quorum

MAX_UNIVERSE = 7


def subsets(ids):
    ids = sorted(ids)
    return [set(c) for r in range(len(ids) + 1)
            for c in itertools.combinations(ids, r)]


def quorums_of(universe, distinguished=None):
    """Every subset of ``universe`` the rule accepts, smallest first."""
    return [s for s in subsets(universe)
            if is_quorum(s, set(universe), distinguished)]


def pairwise_intersect(quorums):
    """Definition 1's intersection property over a family of sets."""
    return all(a & b for a, b in itertools.combinations(quorums, 2))


def paper_rule(responders, universe, distinguished):
    """Sections II-C/II-D as written: ``w > v/2``, or (linear voting)
    ``w = v/2`` of an even ``v`` with the distinguished node voting."""
    w = sum(1 for node in responders if node in universe)
    v = len(universe)
    if w > v / 2:
        return True
    return (distinguished is not None and v % 2 == 0 and w == v / 2
            and distinguished in responders and distinguished in universe)


def test_is_quorum_matches_the_paper_exhaustively():
    for size in range(MAX_UNIVERSE + 1):
        universe = set(range(size))
        outsider = size
        for distinguished in [None, *sorted(universe), outsider]:
            for responders in subsets(universe | {outsider}):
                assert (is_quorum(responders, universe, distinguished)
                        == paper_rule(responders, universe, distinguished)), (
                    responders, universe, distinguished)


def test_quorums_of_one_universe_intersect_exhaustively():
    """Definition 1, majority and linear voting alike."""
    for size in range(1, MAX_UNIVERSE + 1):
        universe = set(range(size))
        for distinguished in [None, *sorted(universe), size]:
            quorums = quorums_of(universe, distinguished)
            assert quorums, (universe, distinguished)
            assert pairwise_intersect(quorums), (universe, distinguished)


def test_definition_one_accepts_intersecting_sets():
    assert quorums_of({1, 2, 3}) == [{1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
    assert pairwise_intersect(quorums_of({1, 2, 3}))


def test_definition_one_rejects_disjoint_sets():
    """Neither of two disjoint halves is a quorum without a
    distinguished node; with one, only the half holding it is."""
    assert not is_quorum({1}, {1, 2})
    assert not is_quorum({2}, {1, 2})
    assert is_quorum({1}, {1, 2}, distinguished=1)
    assert not is_quorum({2}, {1, 2}, distinguished=1)


def test_definition_one_rejects_sets_outside_universe():
    assert not is_quorum({1, 4}, {1, 2, 3})
    assert not is_quorum({1, 4}, {1, 2, 3, 4, 5, 6}, distinguished=4)


def test_definition_one_rejects_empty_family_and_empty_quorum():
    assert quorums_of(set()) == []
    assert not is_quorum(set(), set(), distinguished=1)
    assert not is_quorum(set(), {1, 2})
    assert not is_quorum(set(), {1, 2}, distinguished=1)


def test_paper_example_quorums():
    """Section II-C's example: {1,2,3,4}, {1,2,3,5}, {2,3,4,5} over six
    cluster heads."""
    universe = {1, 2, 3, 4, 5, 6}
    quorums = [{1, 2, 3, 4}, {1, 2, 3, 5}, {2, 3, 4, 5}]
    assert all(is_quorum(q, universe) for q in quorums)
    assert pairwise_intersect(quorums)


def test_majority_threshold():
    """The smallest majority quorum is ``floor(v/2) + 1``."""
    smallest = [len(quorums_of(set(range(v)))[0]) for v in range(1, 6)]
    assert smallest == [1, 2, 2, 3, 3]


def test_majority_half_is_not_quorum_for_even_universe():
    """Section II-D: exactly half does not constitute a quorum."""
    assert not is_quorum({1, 2}, {1, 2, 3, 4})
    assert is_quorum({1, 2, 3}, {1, 2, 3, 4})


def test_responders_outside_universe_do_not_count():
    assert not is_quorum({7, 8, 9}, {1, 2, 3})
    assert is_quorum({1, 2, 9}, {1, 2, 3})


def test_minimal_quorums_form_a_quorum_system():
    universe = {1, 2, 3, 4, 5}
    quorums = quorums_of(universe)
    minimal = [q for q in quorums if not any(p < q for p in quorums)]
    assert len(minimal) == 10
    assert all(len(q) == 3 for q in minimal)
    assert pairwise_intersect(minimal)


@given(st.sets(st.integers(0, 30), min_size=1, max_size=8))
def test_any_two_majorities_intersect(universe):
    """The defining property: two majority quorums always share a node."""
    assert pairwise_intersect(quorums_of(universe)), universe


@given(
    st.sets(st.integers(0, 20), min_size=1, max_size=10),
    st.sets(st.integers(0, 20), max_size=10),
)
def test_majority_is_monotone(universe, responders):
    """Adding responders never destroys a quorum."""
    if is_quorum(responders, universe):
        bigger = set(responders) | {max(universe)}
        assert is_quorum(bigger, universe)
