"""Commit-time address conflict detection (the RFC 5227-style probe)."""

from repro.core import ProtocolConfig

from tests.helpers import add_node, line_agents, make_ctx


def configured_chain(ctx, count, cfg=None):
    agents = line_agents(ctx, count, cfg=cfg)
    ctx.sim.run(until=count * 15.0 + 20.0)
    return agents


def test_no_conflict_for_unbound_address():
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    head = agents[0]
    free = head.head.pool.free.first()
    assert not head._acd_conflict(free, requester=99)


def test_no_conflict_when_bound_to_requester():
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    head, common = agents
    assert not head._acd_conflict(common.ip, requester=common.node_id)


def test_conflict_when_bound_to_other_alive_same_network_node():
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    head, common = agents
    assert head._acd_conflict(common.ip, requester=99)


def test_no_conflict_with_dead_holder():
    ctx = make_ctx()
    agents = configured_chain(ctx, 3)
    head, common = agents[0], agents[1]
    address = common.ip
    common.node.kill()  # dead but registry binding untouched mid-crash
    assert not head._acd_conflict(address, requester=99)


def test_no_conflict_across_networks():
    ctx = make_ctx()
    cfg = ProtocolConfig(merge_detection_enabled=False)
    left = configured_chain(ctx, 2, cfg=cfg)
    # A second, disconnected network.
    loner = add_node(ctx, 50, 900.0, 900.0, cfg=cfg)
    loner.on_enter()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert loner.head is not None
    assert loner.network_id != left[0].network_id
    # Both networks bind address 0; left's first head holds it in its
    # own network, so probing it there is a conflict, and the loner's
    # binding in the other network is none of left's business.
    assert ctx.resolve_ip(loner.network_id, 0) == loner.node_id
    assert ctx.resolve_ip(left[0].network_id, 0) == left[0].node_id
    assert left[0]._acd_conflict(0, requester=99)
    assert not loner._acd_conflict(left[1].ip, requester=99)


def test_commit_retries_past_conflicted_address():
    """If the lowest free address is secretly bound (forked history),
    the allocator books the truth and configures with the next one."""
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    head, common = agents
    # Fabricate a fork: the pool believes some address is free although
    # a live node of the same network answers for it.
    victim_address = head.head.pool.free.first()
    ctx.bind_ip(common.network_id, victim_address, common.node_id)
    newcomer = add_node(ctx, 77, 160.0, 560.0)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert newcomer.is_configured()
    assert newcomer.ip != victim_address
    # The allocator adopted the truth.
    assert victim_address in head.head.pool.allocated
