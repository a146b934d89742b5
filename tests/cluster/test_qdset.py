"""Unit tests for QDSet membership and suspicion."""

from repro.cluster import QDSet
from repro.cluster.qdset import MIN_REPLICAS


def test_add_and_members_sorted():
    qdset = QDSet()
    assert qdset.add(3)
    assert qdset.add(1)
    assert not qdset.add(3)  # duplicate
    assert qdset.members() == [1, 3]
    assert len(qdset) == 2
    assert 3 in qdset and 2 not in qdset


def test_remove():
    qdset = QDSet([1, 2])
    assert qdset.remove(1)
    assert not qdset.remove(1)
    assert qdset.members() == [2]


def test_suspicion_lifecycle():
    qdset = QDSet([1, 2, 3])
    qdset.suspect(2)
    assert qdset.suspected() == [2]
    assert qdset.active_members() == [1, 3]
    assert qdset.members() == [1, 2, 3]  # still a member
    qdset.clear_suspicion(2)
    assert qdset.active_members() == [1, 2, 3]


def test_suspect_nonmember_ignored():
    qdset = QDSet([1])
    qdset.suspect(9)
    assert qdset.suspected() == []


def test_adding_clears_suspicion():
    qdset = QDSet([1])
    qdset.suspect(1)
    qdset.remove(1)
    qdset.add(1)
    assert qdset.active_members() == [1]


def test_remove_clears_suspicion():
    qdset = QDSet([1, 2])
    qdset.suspect(1)
    qdset.remove(1)
    assert qdset.suspected() == []


def test_needs_regrow_threshold():
    qdset = QDSet([1, 2])
    assert qdset.needs_regrow()
    qdset.add(3)
    assert len(qdset) == MIN_REPLICAS
    assert not qdset.needs_regrow()
