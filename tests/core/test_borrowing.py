"""Address borrowing from the QuorumSpace (Section V-A)."""

import pytest

from repro.addrspace import Block
from repro.addrspace.records import AddressStatus
from repro.cluster.roles import Role
from repro.core import ProtocolConfig
from repro.core.borrowing import select_candidate
from repro.core.state import HeadState
from repro.quorum.replica import Replica

from tests.helpers import add_node, line_agents, make_ctx


# ---------------------------------------------------------------------------
# select_candidate unit tests
# ---------------------------------------------------------------------------
def make_head(block, qdset=()):
    head = HeadState(block, node_id=0)  # holds the block's first address
    for member in qdset:
        head.qdset.add(member)
    return head


def test_own_space_preferred():
    head = make_head(Block(0, 8))
    assert select_candidate(head, set(), borrowing_enabled=True) == (1, None)


def test_reserved_addresses_skipped():
    head = make_head(Block(0, 8))
    candidate = select_candidate(head, {1, 2}, borrowing_enabled=True)
    assert candidate == (3, None)


def test_borrow_when_own_space_dry():
    head = make_head(Block(0, 2))
    head.pool.allocate()  # exhaust: 0 = own ip, 1 allocated
    head.qdset.add(7)
    replica = Replica(7, [Block(8, 4)])
    head.replicas.install(replica)
    candidate = select_candidate(head, set(), borrowing_enabled=True)
    assert candidate == (8, 7)


def test_borrow_disabled_returns_none():
    head = make_head(Block(0, 2))
    head.pool.allocate()
    head.qdset.add(7)
    head.replicas.install(Replica(7, [Block(8, 4)]))
    assert select_candidate(head, set(), borrowing_enabled=False) is None


def test_borrow_only_from_active_quorum_members():
    head = make_head(Block(0, 2))
    head.pool.allocate()
    head.replicas.install(Replica(7, [Block(8, 4)]))  # 7 NOT in qdset
    assert select_candidate(head, set(), borrowing_enabled=True) is None


def test_borrow_skips_assigned_replica_addresses():
    head = make_head(Block(0, 2))
    head.pool.allocate()
    head.qdset.add(7)
    replica = Replica(7, [Block(8, 2)])
    replica.ledger.mark_assigned(8, holder=9)
    head.replicas.install(replica)
    assert select_candidate(head, set(), borrowing_enabled=True) == (9, 7)


# ---------------------------------------------------------------------------
# End-to-end borrowing
# ---------------------------------------------------------------------------
@pytest.fixture
def dry_allocator_network():
    """A chain with heads at 0 and 3 where head 3's space is tiny."""
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=3)  # only 8 addresses total
    agents = line_agents(ctx, 4, cfg=cfg)
    ctx.sim.run(until=60.0)
    assert agents[3].role is Role.HEAD
    return ctx, cfg, agents


def test_dry_head_borrows_from_quorum_space(dry_allocator_network):
    ctx, cfg, agents = dry_allocator_network
    head3 = agents[3]
    # Exhaust head3's own space.
    while head3.head.pool.peek_free() is not None:
        head3.head.pool.allocate()
    # A newcomer next to head3 must still be configured — with an
    # address borrowed from head0's space.
    newcomer = add_node(ctx, 50, 100.0 + 120.0 * 4, cfg=cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert newcomer.is_configured()
    assert agents[0].head.owns(newcomer.ip)


def test_borrow_commits_at_owner(dry_allocator_network):
    ctx, cfg, agents = dry_allocator_network
    head0, head3 = agents[0], agents[3]
    while head3.head.pool.peek_free() is not None:
        head3.head.pool.allocate()
    newcomer = add_node(ctx, 50, 100.0 + 120.0 * 4, cfg=cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    record = head0.head.ledger.get(newcomer.ip)
    assert record.status is AddressStatus.ASSIGNED
    assert newcomer.ip in head0.head.pool.allocated


def test_borrowed_addresses_stay_unique(dry_allocator_network):
    ctx, cfg, agents = dry_allocator_network
    head3 = agents[3]
    while head3.head.pool.peek_free() is not None:
        head3.head.pool.allocate()
    newcomers = []
    for i in range(2):
        agent = add_node(ctx, 50 + i, 100.0 + 120.0 * 4, cfg=cfg)
        ctx.sim.schedule(i * 3.0, agent.on_enter)
        newcomers.append(agent)
    ctx.sim.run(until=ctx.sim.now + 40.0)
    ips = [a.ip for a in newcomers if a.ip is not None]
    assert len(ips) == len(set(ips))
