"""AgentStore: SoA agent registry — dict surface, columns, compaction.

The compaction discipline must mirror :class:`repro.net.store.NodeStore`
(same thresholds, same tombstone bookkeeping, same layout_version
contract) so everything the scale layer learned about slot references
applies to both stores unchanged.
"""

import pytest

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.agents import NO_ADDRESS, AgentStore
from repro.net.node import Node
from repro.net.store import COMPACT_MIN_SLOTS, NodeStore


class FakeAgent:
    """The duck type AgentStore snapshots: .node, .ip."""

    def __init__(self, node_id, ip=None):
        self.node = Node(node_id, Stationary(Point(0.0, 0.0)))
        self.ip = ip


def make_store(n, **kw):
    store = AgentStore()
    for i in range(n):
        store.add(FakeAgent(i, **kw))
    return store


# ---------------------------------------------------------------------------
# Dict-compatible registry surface
# ---------------------------------------------------------------------------
def test_registry_surface_matches_dict_semantics():
    store = AgentStore()
    a, b = FakeAgent(7), FakeAgent(3)
    store.add(a)
    store[3] = b
    assert len(store) == 2
    assert 7 in store and 3 in store and 99 not in store
    assert store[7] is a and store.get(3) is b
    assert store.get(99, "dflt") == "dflt"
    with pytest.raises(KeyError):
        store[99]
    # Insertion (slot) order, like the dict it replaces.
    assert list(store) == [7, 3]
    assert store.keys() == [7, 3]
    assert store.values() == [a, b]
    assert store.items() == [(7, a), (3, b)]


def test_setitem_rejects_mismatched_id():
    store = AgentStore()
    with pytest.raises(ValueError):
        store[5] = FakeAgent(6)


def test_reregistering_replaces_in_place():
    store = AgentStore()
    old, new = FakeAgent(1, ip=42), FakeAgent(1)
    slot = store.add(old)
    assert store.address_of(1) == 42
    assert store.add(new) == slot  # same slot, dict overwrite semantics
    assert store[1] is new
    assert len(store) == 1
    # Columns re-snapshot from the replacement agent.
    assert store.address_of(1) is None


def test_pop_evicts_and_returns():
    store = AgentStore()
    agent = FakeAgent(4)
    store.add(agent)
    assert store.pop(4) is agent
    assert store.pop(4, "gone") == "gone"
    assert 4 not in store and len(store) == 0


# ---------------------------------------------------------------------------
# Eviction, tombstones, compaction — NodeStore parity
# ---------------------------------------------------------------------------
def test_evict_tombstones_without_moving_slots():
    store = make_store(4)
    assert store.evict(1)
    assert not store.evict(1)  # already gone
    assert len(store) == 3
    assert store.capacity == 4  # tombstone keeps the slot space
    assert store.tombstones == 1
    assert store.keys() == [0, 2, 3]
    assert store.layout_version == 0  # no compaction yet


def test_compaction_preserves_order_and_bumps_layout():
    store = make_store(COMPACT_MIN_SLOTS)
    survivors = [i for i in range(2, COMPACT_MIN_SLOTS, 2)]
    for i in range(COMPACT_MIN_SLOTS):
        if i % 2 == 1:
            store.evict(i)
    assert store.layout_version == 0  # exactly half: threshold is strict
    store.evict(0)
    # Strictly more than half the slot space tombstoned => compacted.
    assert store.layout_version == 1
    assert store.tombstones == 0
    assert store.capacity == len(survivors)
    assert store.keys() == survivors
    assert all(store.slot_of[nid] == rank
               for rank, nid in enumerate(survivors))


def test_compaction_scrubs_column_state():
    store = AgentStore()
    for i in range(COMPACT_MIN_SLOTS):
        store.add(FakeAgent(i, ip=100 + i))
    for i in range(COMPACT_MIN_SLOTS):
        if i % 2 == 1:
            store.evict(i)
    store.compact()
    # Columns survive for the survivors, tombstone entries are gone.
    assert store.bound_address_count() == COMPACT_MIN_SLOTS // 2
    assert store.address_of(0) == 100
    assert store.address_of(1) is None


def test_compaction_thresholds_match_node_store():
    """Same churn sequence => same compaction points as NodeStore."""
    agent_store = AgentStore()
    node_store = NodeStore()
    n = COMPACT_MIN_SLOTS * 2
    for i in range(n):
        agent_store.add(FakeAgent(i))
        node_store.add(Node(i, Stationary(Point(0.0, 0.0))))
    for i in range(n):
        agent_store.evict(i)
        node_store.evict(i)
        assert agent_store.layout_version == node_store.layout_version, i
        assert agent_store.tombstones == node_store.tombstones, i
        assert agent_store.capacity == node_store.capacity, i


def test_churn_through_many_compactions_stays_consistent():
    store = AgentStore()
    alive = set()
    next_id = 0
    for _ in range(COMPACT_MIN_SLOTS):
        for _ in range(3):
            store.add(FakeAgent(next_id, ip=next_id))
            alive.add(next_id)
            next_id += 1
        victim = min(alive)
        store.evict(victim)
        alive.remove(victim)
    assert len(store) == len(alive)
    assert set(store.keys()) == alive
    assert store.keys() == sorted(store.keys())  # insertion order kept
    assert store.bound_address_count() == len(alive)
    for nid in alive:
        assert store.address_of(nid) == nid


# ---------------------------------------------------------------------------
# Columns: snapshot, write-through, aggregate readers
# ---------------------------------------------------------------------------
def test_add_snapshots_address_from_agent():
    store = AgentStore()
    store.add(FakeAgent(1, ip=7))
    store.add(FakeAgent(2))
    assert store.address_of(1) == 7
    assert store.address_of(2) is None
    assert store.addresses[store.slot_of[2]] == NO_ADDRESS


def test_note_writes_through_and_missing_ids_noop():
    store = make_store(2)
    store.note_address(0, 9)
    assert store.address_of(0) == 9
    store.note_address(0, None)  # the clearing spelling
    assert store.address_of(0) is None
    # A role change keeps no column; it versions the derived tables.
    epoch = store.role_epoch
    store.note_role(0)
    assert store.role_epoch == epoch + 1
    # Unknown ids are silently ignored (agents can be unregistered
    # while protocol timers still fire).
    store.note_role(99)
    store.note_address(99, 1)
    assert store.role_epoch == epoch + 1
    assert store.address_of(99) is None


def flagged_ids(store):
    """What ``allocator_ids`` must hold: the ids whose byte is set."""
    return {nid for nid, slot in store.slot_of.items()
            if store.allocators[slot]}


def test_allocator_column_versions_on_flips_and_survives_compaction():
    store = make_store(COMPACT_MIN_SLOTS)
    assert not any(store.allocators)   # registration starts at 0
    assert store.allocator_ids == set()
    epoch = store.role_epoch
    store.note_allocator(2, True)
    store.note_allocator(4, True)
    assert store.role_epoch == epoch + 2
    assert store.allocator_ids == flagged_ids(store) == {2, 4}
    # Re-noting the same answer is free; unknown ids are ignored.
    store.note_allocator(2, True)
    store.note_allocator(99, True)
    assert store.role_epoch == epoch + 2
    assert store.allocator_ids == {2, 4}
    for i in range(1, COMPACT_MIN_SLOTS, 2):
        store.evict(i)
    store.evict(0)                     # strictly over half: compacts
    assert store.layout_version == 1
    # Compaction renumbers slots, not ids.
    assert store.allocator_ids == flagged_ids(store) == {2, 4}
    # Eviction and re-registration both reset the byte.
    store.evict(2)
    store.add(FakeAgent(4))
    assert not any(store.allocators)
    assert store.allocator_ids == set()


def test_allocator_ids_mirror_the_byte_through_every_writer():
    store = make_store(4)
    store.note_allocator(1, True)
    store.note_allocator(3, True)
    store.note_allocator(3, False)
    store.note_allocator(3, False)     # idempotent both ways
    assert store.allocator_ids == flagged_ids(store) == {1}
    # Re-adding a live id keeps its slot and starts its columns over.
    slot = store.slot_of[1]
    assert store.add(FakeAgent(1)) == slot
    assert store.allocator_ids == flagged_ids(store) == set()
    store.note_allocator(1, True)
    store.note_allocator(2, True)
    # An evicted id leaves the set, and a later registration under the
    # same id (a new slot) does not inherit the old answer.
    store.evict(1)
    assert store.allocator_ids == flagged_ids(store) == {2}
    store.add(FakeAgent(1))
    store.note_allocator(99, True)     # never registered
    assert store.allocator_ids == flagged_ids(store) == {2}
    assert store.pop(2) is not None
    assert store.allocator_ids == set()


def test_aggregate_readers_scan_columns():
    store = AgentStore()
    for i in range(6):
        store.add(FakeAgent(i))
    store.note_address(0, 10)
    store.note_address(1, 11)
    assert store.bound_address_count() == 2
    # Eviction removes the slot from the aggregate.
    store.evict(1)
    assert store.bound_address_count() == 1
