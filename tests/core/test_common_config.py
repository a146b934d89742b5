"""Common-node configuration through quorum voting (Fig. 2)."""

from repro.addrspace.records import AddressStatus
from repro.cluster.roles import Role
from repro.core import ProtocolConfig

from tests.helpers import (
    assert_unique_addresses,
    line_agents,
    make_ctx,
)


def test_second_node_becomes_common():
    ctx = make_ctx()
    agents = line_agents(ctx, 2)
    ctx.sim.run(until=30.0)
    head, common = agents
    assert head.role is Role.HEAD
    assert common.role is Role.COMMON
    assert common.common.configurer_id == head.node_id
    assert common.ip is not None and common.ip != head.ip


def test_common_node_within_two_hops_joins_cluster():
    ctx = make_ctx()
    agents = line_agents(ctx, 3)  # node 2 is exactly 2 hops from head
    ctx.sim.run(until=40.0)
    assert agents[2].role is Role.COMMON
    assert agents[2].common.configurer_id == agents[0].node_id


def test_addresses_unique_along_chain():
    ctx = make_ctx()
    agents = line_agents(ctx, 6)
    ctx.sim.run(until=80.0)
    assert all(a.is_configured() for a in agents)
    assert_unique_addresses(agents)


def test_allocator_ledger_marks_assignment():
    ctx = make_ctx()
    agents = line_agents(ctx, 2)
    ctx.sim.run(until=30.0)
    head, common = agents
    record = head.head.ledger.get(common.ip)
    assert record.status is AddressStatus.ASSIGNED
    assert record.holder == common.node_id
    assert common.ip in head.head.pool.allocated
    assert head.head.configured[common.ip] == common.node_id


def test_network_id_propagates():
    ctx = make_ctx()
    agents = line_agents(ctx, 4)
    ctx.sim.run(until=60.0)
    ids = {a.network_id for a in agents}
    assert len(ids) == 1


def test_common_latency_is_small_and_positive():
    ctx = make_ctx()
    agents = line_agents(ctx, 2)
    ctx.sim.run(until=30.0)
    # 1-hop request + reply, no quorum members yet: exactly 2 hops.
    assert agents[1].config_latency_hops == 2


def test_latency_includes_quorum_round_trip_with_majority_voting():
    """Without dynamic linear voting, a strict majority of {self, head0}
    needs head0's vote: the quorum round trip lands on the critical
    path of a common-node configuration."""
    ctx = make_ctx()
    cfg = ProtocolConfig(use_linear_voting=False)
    agents = line_agents(ctx, 5, cfg=cfg)  # heads at 0 and 3
    ctx.sim.run(until=80.0)
    head2 = agents[3]
    assert head2.role is Role.HEAD
    follower = agents[4]
    assert follower.role is Role.COMMON
    # COM_REQ (1) + quorum round trip to head0 (2 * 3) + COM_CFG (1).
    assert follower.config_latency_hops == 8


def test_linear_voting_short_circuits_the_round_trip():
    """Dynamic linear voting (Section II-D): with an even universe
    {self, head0} and the owner distinguished, the allocator's own copy
    already forms a quorum — the configuration completes in 2 hops."""
    ctx = make_ctx()
    cfg = ProtocolConfig(use_linear_voting=True)
    agents = line_agents(ctx, 5, cfg=cfg)
    ctx.sim.run(until=80.0)
    follower = agents[4]
    assert follower.role is Role.COMMON
    assert follower.config_latency_hops == 2


def test_ip_registry_binding():
    ctx = make_ctx()
    agents = line_agents(ctx, 3)
    ctx.sim.run(until=40.0)
    for agent in agents:
        assert ctx.resolve_ip(agent.network_id, agent.ip) == agent.node_id


def test_balance_allocators_picks_largest_block():
    ctx = make_ctx()
    cfg = ProtocolConfig(balance_allocators=True)
    agents = line_agents(ctx, 5, cfg=cfg)
    ctx.sim.run(until=80.0)
    assert all(a.is_configured() for a in agents)
    assert_unique_addresses(agents)
