"""Cluster-head configuration: block halving, replicas, QDSets (Fig. 3,
Table 1)."""

from repro.cluster.roles import Role
from repro.core import ProtocolConfig

from tests.helpers import assert_unique_addresses, line_agents, make_ctx


def test_node_beyond_two_hops_becomes_head():
    ctx = make_ctx()
    agents = line_agents(ctx, 4)  # node 3 is 3 hops from head 0
    ctx.sim.run(until=60.0)
    assert agents[3].role is Role.HEAD


def test_new_head_gets_half_the_block():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)  # 64 addresses
    agents = line_agents(ctx, 4, cfg=cfg)
    ctx.sim.run(until=60.0)
    first, new = agents[0].head, agents[3].head
    assert new is not None
    # The new head received the upper half [32, 64).
    assert new.ip == 32
    assert new.pool.total_count() == 32
    assert first.pool.total_count() + new.pool.total_count() == 64


def test_heads_are_never_neighbors():
    ctx = make_ctx()
    agents = line_agents(ctx, 8)
    ctx.sim.run(until=120.0)
    heads = [a for a in agents if a.role is Role.HEAD]
    assert len(heads) >= 2
    for i, a in enumerate(heads):
        for b in heads[i + 1:]:
            hops = ctx.topology.hops(a.node_id, b.node_id)
            assert hops is None or hops >= 2


def test_adjacent_heads_join_each_others_qdset():
    ctx = make_ctx()
    agents = line_agents(ctx, 4)
    ctx.sim.run(until=60.0)
    head0, head3 = agents[0], agents[3]
    assert head3.node_id in head0.head.qdset
    assert head0.node_id in head3.head.qdset


def test_replicas_exchanged_between_adjacent_heads():
    ctx = make_ctx()
    agents = line_agents(ctx, 4)
    ctx.sim.run(until=60.0)
    head0, head3 = agents[0], agents[3]
    replica_of_3 = head0.head.replicas.get(head3.node_id)
    replica_of_0 = head3.head.replicas.get(head0.node_id)
    assert replica_of_3 is not None and replica_of_0 is not None
    assert replica_of_3.covers(head3.ip)
    assert replica_of_0.covers(head0.ip)


def test_replica_sizes_mirror_pools():
    ctx = make_ctx()
    agents = line_agents(ctx, 4)
    ctx.sim.run(until=60.0)
    head0, head3 = agents[0], agents[3]
    assert (head0.head.replicas.get(head3.node_id).size()
            == head3.head.pool.total_count())


def test_quorum_space_extends_ip_space():
    ctx = make_ctx()
    agents = line_agents(ctx, 4)
    ctx.sim.run(until=60.0)
    head3 = agents[3]
    assert head3.head.quorum_space_size() > 0


def test_long_chain_configures_fully_and_uniquely():
    ctx = make_ctx()
    agents = line_agents(ctx, 10)
    ctx.sim.run(until=160.0)
    assert all(a.is_configured() for a in agents)
    assert_unique_addresses(agents)
    heads = [a for a in agents if a.role is Role.HEAD]
    # A 10-node chain at 1 hop spacing forms heads roughly every 3 hops.
    assert 3 <= len(heads) <= 5


def test_head_latency_includes_proposal_legs():
    ctx = make_ctx()
    agents = line_agents(ctx, 4)
    ctx.sim.run(until=60.0)
    head3 = agents[3]
    # CH_REQ(3) + CH_PRP(3) + CH_CNF(3) + CH_CFG(3) = 12, quorum
    # short-circuited by linear voting (empty QDSet at grant time).
    assert head3.config_latency_hops == 12
