"""Unit tests for replica stores (QuorumSpace)."""

from repro.addrspace.records import AddressRecord, AddressStatus
from repro.quorum import Replica, ReplicaStore


def make_replica(owner=1, free=((0, 8),), assigned=()):
    return Replica(owner, free, assigned)


def test_replica_covers_its_blocks():
    replica = make_replica(free=[(0, 4)], assigned=[(8, 12)])
    assert replica.covers(0) and replica.covers(11)
    assert not replica.covers(4)


def test_replica_size():
    assert make_replica(free=[(0, 4)], assigned=[(8, 16)]).size() == 12


def test_free_addresses_respect_ledger():
    replica = make_replica(free=[(0, 4)])
    replica.ledger.mark_assigned(1, holder=9)
    assert list(replica.free_addresses()) == [0, 2, 3]


def test_addresses_walk_free_then_assigned():
    replica = make_replica(free=[(4, 6)], assigned=[(0, 2), (7, 8)])
    assert list(replica.addresses()) == [4, 5, 0, 1, 7]
    # The owner's assigned addresses are candidates too, when the
    # replica's ledger has them FREE (the owner released them since).
    replica.ledger.mark_free(1)
    assert list(replica.free_addresses()) == [4, 5, 0, 1, 7]
    replica.ledger.mark_assigned(0, holder=3)
    assert list(replica.free_addresses()) == [4, 5, 1, 7]


def test_copy_is_deep_for_ledger():
    replica = make_replica()
    replica.ledger.mark_assigned(0, holder=1)
    clone = replica.copy()
    replica.ledger.mark_free(0)
    assert clone.ledger.get(0).status is AddressStatus.ASSIGNED


def test_store_install_and_get():
    store = ReplicaStore()
    store.install(make_replica(owner=3))
    assert 3 in store
    assert store.get(3).owner == 3
    assert store.owners() == [3]


def test_install_refresh_merges_ledgers():
    store = ReplicaStore()
    first = make_replica(owner=3)
    first.ledger.mark_assigned(0, holder=5)  # ts 1
    store.install(first)
    refresh = make_replica(owner=3, free=[(1, 4)], assigned=[(0, 1)])
    # Stale record must not roll back the stored one.
    refresh.ledger.apply(0, AddressRecord(AddressStatus.FREE, 0, None))
    store.install(refresh)
    stored = store.get(3)
    assert stored.free.ranges() == [(1, 4)]
    assert stored.assigned.ranges() == [(0, 1)]
    assert stored.ledger.get(0).status is AddressStatus.ASSIGNED


def test_drop():
    store = ReplicaStore()
    store.install(make_replica(owner=3))
    dropped = store.drop(3)
    assert dropped is not None and dropped.owner == 3
    assert store.drop(3) is None
    assert 3 not in store


def test_find_covering():
    store = ReplicaStore()
    store.install(make_replica(owner=1, free=[(0, 4)]))
    store.install(make_replica(owner=2, free=[], assigned=[(8, 12)]))
    assert store.find_covering(2).owner == 1
    assert store.find_covering(9).owner == 2
    assert store.find_covering(5) is None


def test_total_size():
    store = ReplicaStore()
    store.install(make_replica(owner=1, free=[(0, 8)]))
    store.install(make_replica(owner=2, free=[(16, 32)]))
    assert store.total_size() == 24
    assert len(store) == 2


def test_install_copies_source():
    store = ReplicaStore()
    source = make_replica(owner=4)
    store.install(source)
    source.ledger.mark_assigned(0, holder=1)
    source.free.remove(0, 8)
    assert store.get(4).ledger.peek(0) is None
    assert store.get(4).covers(0)
