"""Allocator choice: network ranking and the largest-block alternative."""

from repro.core import ProtocolConfig

from tests.helpers import add_node, line_agents, make_ctx


def test_rank_by_network_prefers_older_network():
    ctx = make_ctx()
    cfg = ProtocolConfig(merge_detection_enabled=False)
    # Two separate networks, founded in order.
    left = line_agents(ctx, 2, cfg=cfg, start_x=100.0)
    right = []
    for i in range(2):
        agent = add_node(ctx, 10 + i, 100.0 + 120.0 * i, 900.0, cfg=cfg)
        ctx.sim.schedule(20.0 + 5.0 * i, agent.on_enter)
        right.append(agent)
    ctx.sim.run(until=60.0)
    older_head = left[0]
    younger_head = right[0]
    assert older_head.network_id < younger_head.network_id
    # A probe node that can see both heads ranks the older network
    # first even when the younger head is closer.
    probe = add_node(ctx, 99, 100.0, 500.0, cfg=cfg)
    candidates = [
        (older_head.node_id, 3),   # farther
        (younger_head.node_id, 1),  # nearer but younger network
    ]
    ranked = probe._rank_by_network(candidates)
    assert ranked[0][0] == older_head.node_id


def test_rank_by_network_falls_back_to_distance():
    ctx = make_ctx()
    agents = line_agents(ctx, 7)  # one network, several heads
    ctx.sim.run(until=110.0)
    heads = [a for a in agents if a.head is not None]
    assert len(heads) >= 2
    probe = agents[1]
    candidates = [(heads[0].node_id, 3), (heads[1].node_id, 1)]
    ranked = probe._rank_by_network(candidates)
    # Same network: nearest first.
    assert ranked[0][1] == 1


def test_rank_unknown_agents_last():
    ctx = make_ctx()
    agents = line_agents(ctx, 2)
    ctx.sim.run(until=30.0)
    probe = agents[1]
    ranked = probe._rank_by_network([(999, 1), (agents[0].node_id, 2)])
    assert ranked[0][0] == agents[0].node_id


def test_largest_block_allocator_balances_load():
    """The §IV-B alternative: with two allocators in range, the one
    with more free addresses is picked — and the query cost is charged."""
    ctx = make_ctx()
    cfg = ProtocolConfig(balance_allocators=True)
    agents = line_agents(ctx, 4, cfg=cfg)
    ctx.sim.run(until=60.0)
    heads = [a for a in agents if a.head is not None]
    assert len(heads) == 2
    big, small = sorted(heads, key=lambda h: -h.head.pool.free_count())
    # A newcomer equidistant-ish from both picks the bigger pool.
    probe = add_node(ctx, 77, 340.0, 560.0, cfg=cfg)
    near = probe._allocators_within(2)
    if len(near) >= 2:
        choice = probe._pick_largest_block_allocator(near)
        assert choice == big.node_id
