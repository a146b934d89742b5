"""Unit tests for vote collection."""

import pytest

from repro.addrspace.records import AddressRecord, AddressStatus
from repro.quorum import Vote, VoteCollector


def record(status=AddressStatus.FREE, ts=0, holder=None):
    return AddressRecord(status, ts, holder)


class TestVoteCollector:
    def test_no_decision_without_quorum(self):
        collector = VoteCollector(5, {1, 2, 3})
        collector.add_vote(Vote(1, 5, record()))
        assert collector.decide() is None

    def test_free_decision_on_quorum(self):
        collector = VoteCollector(5, {1, 2, 3})
        collector.add_vote(Vote(1, 5, record()))
        collector.add_vote(Vote(2, 5, record()))
        assert collector.decide() is True

    def test_latest_timestamp_wins(self):
        """A single fresh ASSIGNED record outvotes stale FREE records."""
        collector = VoteCollector(5, {1, 2, 3})
        collector.add_vote(Vote(1, 5, record(AddressStatus.FREE, ts=1)))
        collector.add_vote(Vote(2, 5, record(AddressStatus.ASSIGNED, ts=7)))
        collector.add_vote(Vote(3, 5, record(AddressStatus.FREE, ts=2)))
        assert collector.decide() is False
        assert collector.latest_record().timestamp == 7

    def test_votes_for_wrong_address_rejected(self):
        collector = VoteCollector(5, {1})
        with pytest.raises(ValueError):
            collector.add_vote(Vote(1, 6, record()))

    def test_votes_outside_universe_ignored(self):
        collector = VoteCollector(5, {1, 2, 3})
        collector.add_vote(Vote(9, 5, record()))
        assert collector.responders == set()

    def test_duplicate_votes_counted_once(self):
        collector = VoteCollector(5, {1, 2, 3})
        collector.add_vote(Vote(1, 5, record(ts=1)))
        collector.add_vote(Vote(1, 5, record(ts=2)))
        assert collector.responders == {1}
        assert collector.decide() is None

    def test_linear_voting_halves_requirement(self):
        collector = VoteCollector(5, {1, 2, 3, 4}, distinguished=1)
        collector.add_vote(Vote(1, 5, record()))
        assert collector.decide() is None  # 1 of 4
        collector.add_vote(Vote(2, 5, record()))
        assert collector.decide() is True  # half incl. distinguished

    def test_latest_record_none_without_votes(self):
        collector = VoteCollector(5, {1})
        assert collector.latest_record() is None
