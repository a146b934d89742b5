"""Unit tests for message accounting."""

import pytest

from repro.net import Category, MessageStats


def test_charge_accumulates():
    stats = MessageStats()
    stats.charge(Category.CONFIG, 3)
    stats.charge(Category.CONFIG, 2)
    assert stats.hops[Category.CONFIG] == 5
    assert stats.messages[Category.CONFIG] == 2


def test_charge_multiple_messages():
    stats = MessageStats()
    stats.charge(Category.MAINTENANCE, 10, messages=10)
    assert stats.messages[Category.MAINTENANCE] == 10


def test_negative_hops_rejected():
    with pytest.raises(ValueError):
        MessageStats().charge(Category.CONFIG, -1)


def test_snapshot_covers_all_categories():
    stats = MessageStats()
    stats.charge(Category.MOVEMENT, 4)
    snap = stats.snapshot()
    assert snap["movement"] == (4, 1)
    assert set(snap) == {c.value for c in Category}
    assert snap["config"] == (0, 0)
