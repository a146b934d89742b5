"""Network initialization: the first node and the T_e/Max_r procedure."""

from repro.cluster.roles import Role
from repro.core import ProtocolConfig

from tests.helpers import add_node, make_ctx


def test_first_node_becomes_head_with_whole_space():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)
    agent = add_node(ctx, 0, 500.0, cfg=cfg)
    agent.on_enter()
    ctx.sim.run(until=30.0)
    assert agent.role is Role.HEAD
    assert agent.ip == 0
    assert agent.head is not None
    # Whole space minus its own address is free.
    assert len(agent.head.pool.free) == 63
    assert agent.network_id is not None


def test_first_node_waits_te_times_max_r():
    ctx = make_ctx()
    cfg = ProtocolConfig(te=1.0, max_r=3)
    agent = add_node(ctx, 0, 500.0, cfg=cfg)
    ctx.sim.schedule(0.0, agent.on_enter)
    ctx.sim.run(until=1.5)
    assert not agent.is_configured()  # still broadcasting INIT_REQ
    ctx.sim.run(until=30.0)
    assert agent.is_configured()
    # Configured only after (max_r - 1) retry periods.
    assert agent.configured_at >= (cfg.max_r - 1) * cfg.te


def test_two_simultaneous_entrants_produce_one_network():
    """INIT_DEFER: the later entrant backs off, then joins the earlier
    one's network instead of founding its own."""
    ctx = make_ctx()
    cfg = ProtocolConfig()
    a = add_node(ctx, 0, 500.0, cfg=cfg)
    b = add_node(ctx, 1, 560.0, cfg=cfg)  # one hop away
    ctx.sim.schedule(0.1, a.on_enter)
    ctx.sim.schedule(0.2, b.on_enter)
    ctx.sim.run(until=40.0)
    assert a.is_configured() and b.is_configured()
    assert a.network_id == b.network_id
    heads = [x for x in (a, b) if x.role is Role.HEAD]
    assert len(heads) == 1


def test_disconnected_entrants_found_separate_networks():
    ctx = make_ctx()
    cfg = ProtocolConfig(merge_detection_enabled=False)
    a = add_node(ctx, 0, 100.0, cfg=cfg)
    b = add_node(ctx, 1, 900.0, cfg=cfg)  # far out of range
    a.on_enter()
    b.on_enter()
    ctx.sim.run(until=30.0)
    assert a.role is Role.HEAD and b.role is Role.HEAD
    assert a.network_id != b.network_id


def test_init_latency_counts_zero_hops():
    ctx = make_ctx()
    agent = add_node(ctx, 0, 500.0)
    agent.on_enter()
    ctx.sim.run(until=30.0)
    assert agent.config_latency_hops == 0
