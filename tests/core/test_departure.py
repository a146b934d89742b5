"""Graceful departure of common nodes and cluster heads (Section IV-C)."""

from repro.addrspace.records import AddressStatus
from repro.cluster.roles import Role

from tests.helpers import line_agents, make_ctx


def configured_chain(ctx, count, until=None):
    agents = line_agents(ctx, count)
    ctx.sim.run(until=until or (count * 15.0 + 20.0))
    assert all(a.is_configured() for a in agents)
    return agents


def test_common_departure_returns_address():
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    head, common = agents
    address = common.ip
    common.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert not common.node.alive
    assert address in head.head.pool.free
    assert head.head.ledger.get(address).status is AddressStatus.FREE
    assert address not in head.head.configured


def test_departed_address_is_reused():
    ctx = make_ctx()
    agents = configured_chain(ctx, 3)
    head = agents[0]
    address = agents[1].ip
    agents[1].depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 10.0)
    # A new node arrives at the departed node's spot.
    from tests.helpers import add_node
    newcomer = add_node(ctx, 99, 220.0, cfg=agents[0].cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert newcomer.is_configured()
    # Lowest free address is the one just returned.
    assert newcomer.ip == address
    assert head.head.configured.get(address) == 99


def test_departure_updates_replicas():
    ctx = make_ctx()
    agents = configured_chain(ctx, 5)  # heads at 0 and 3
    head0, head3 = agents[0], agents[3]
    follower = agents[4]  # configured by head3
    address = follower.ip
    follower.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    replica = head0.head.replicas.get(head3.node_id)
    if replica is not None and replica.covers(address):
        assert replica.ledger.get(address).status is AddressStatus.FREE


def test_head_departure_returns_block_to_configurer():
    ctx = make_ctx()
    agents = configured_chain(ctx, 4)
    head0, head3 = agents[0], agents[3]
    total_before = (head0.head.pool.total_count()
                    + head3.head.pool.total_count())
    head3.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert not head3.node.alive
    # All space (including head3's own address) returned to head0.
    assert head0.head.pool.total_count() == total_before


def test_head_departure_transfers_configured_members():
    ctx = make_ctx()
    # Two rows so the follower stays connected after its head leaves.
    from tests.helpers import positions_cluster
    coordinates = [(100.0 + 120.0 * i, 500.0) for i in range(5)]
    coordinates += [(100.0 + 120.0 * i, 560.0) for i in range(5)]
    agents = positions_cluster(ctx, coordinates)
    ctx.sim.run(until=160.0)
    heads = [a for a in agents if a.head is not None]
    assert len(heads) >= 2
    departing = heads[1]
    members = [
        ctx.agent_of(holder)
        for address, holder in departing.head.configured.items()
        if address != departing.ip and ctx.agent_of(holder) is not None
    ]
    assert members
    departing.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    # ALLOC_CHANGE: members now belong to the absorbing head.
    for member in members:
        if member.common is None:
            continue
        new_configurer = member.common.configurer_id
        assert new_configurer != departing.node_id
        owner = ctx.agent_of(new_configurer)
        assert owner is not None and owner.head is not None
        assert owner.head.configured.get(member.ip) == member.node_id


def test_head_departure_resigns_from_qdsets():
    ctx = make_ctx()
    agents = configured_chain(ctx, 4)
    head0, head3 = agents[0], agents[3]
    head3.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert head3.node_id not in head0.head.qdset
    assert head0.head.replicas.get(head3.node_id) is None


def test_unconfigured_node_departs_silently():
    ctx = make_ctx()
    from tests.helpers import add_node
    loner = add_node(ctx, 0, 500.0)
    loner.on_enter()
    ctx.sim.run(until=0.5)  # not configured yet
    loner.depart_gracefully()
    ctx.sim.run(until=30.0)
    assert not loner.node.alive
    assert loner.ip is None


def test_abrupt_departure_sends_nothing():
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    before = dict(ctx.stats.hops)
    agents[1].vanish()
    assert dict(ctx.stats.hops) == before
    assert not agents[1].node.alive


def test_departure_unbinds_ip():
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    address = agents[1].ip
    agents[1].depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 10.0)
    assert ctx.resolve_ip(agents[1].network_id, address) is None
