"""Buddy baseline [2]: disjoint blocks, periodic global sync."""

from repro.baselines.buddy import BD_NACK, BuddyAgent, BuddyConfig
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Node
from repro.net.agent import RETRY
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.stats import Category


def build(positions, cfg=None, enter_gap=3.0):
    ctx = NetworkContext.build(seed=1, transmission_range=150.0)
    cfg = cfg or BuddyConfig()
    agents = []
    for i, (x, y) in enumerate(positions):
        node = Node(i, Stationary(Point(x, y)))
        ctx.topology.add_node(node)
        agent = BuddyAgent(ctx, node, cfg)
        ctx.sim.schedule(enter_gap * i + 0.1, agent.on_enter)
        agents.append(agent)
    return ctx, agents


def chain(n):
    return [(100 + 120 * i, 500) for i in range(n)]


def test_first_node_owns_whole_space():
    ctx, agents = build(chain(1), BuddyConfig(address_space_bits=6))
    ctx.sim.run(until=10.0)
    assert agents[0].ip == 0
    assert agents[0].pool.total_count() == 64


def test_blocks_are_disjoint():
    ctx, agents = build(chain(5))
    ctx.sim.run(until=60.0)
    seen = set()
    for agent in agents:
        assert agent.pool is not None
        addresses = set(agent.pool.free) | set(agent.pool.allocated)
        assert not (addresses & seen)
        seen |= addresses


def test_configuration_is_cheap_and_local():
    ctx, agents = build(chain(3), BuddyConfig(sync_interval=1000.0))
    ctx.sim.run(until=30.0)
    # One request + one assignment per node, a couple hops each.
    assert ctx.stats.hops[Category.CONFIG] <= 10
    assert all(a.config_latency_hops <= 4 for a in agents)


def test_periodic_sync_floods_dominate_overhead():
    ctx, agents = build(chain(4), BuddyConfig(sync_interval=2.0))
    ctx.sim.run(until=60.0)
    assert ctx.stats.hops[Category.MAINTENANCE] > (
        10 * ctx.stats.hops[Category.CONFIG])


def test_sync_builds_global_table():
    ctx, agents = build(chain(3), BuddyConfig(sync_interval=2.0))
    ctx.sim.run(until=30.0)
    for agent in agents:
        assert set(agent.table) == {0, 1, 2}


def test_graceful_departure_returns_block_to_donor():
    ctx, agents = build(chain(2))
    ctx.sim.run(until=20.0)
    donor, leaver = agents
    assert leaver.donor_id == donor.node_id
    total = donor.pool.total_count() + leaver.pool.total_count()
    leaver.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 10.0)
    assert donor.pool.total_count() == total


def test_silent_buddy_reclaimed():
    cfg = BuddyConfig(sync_interval=2.0, stale_syncs=2)
    ctx, agents = build(chain(2), cfg)
    ctx.sim.run(until=20.0)
    donor, leaver = agents
    space = leaver.pool.total_count()
    before = donor.pool.total_count()
    leaver.vanish()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert donor.pool.total_count() == before + space
    assert ctx.stats.hops[Category.RECLAMATION] > 0


def test_redirect_to_largest_block_peer():
    cfg = BuddyConfig(address_space_bits=2, sync_interval=2.0)  # 4 addrs
    ctx, agents = build(chain(3), cfg)
    ctx.sim.run(until=40.0)
    configured = [a for a in agents if a.ip is not None]
    ips = [a.ip for a in configured]
    assert len(set(ips)) == len(ips)


def test_nack_rearms_an_unconfigured_requester_at_half_its_timeout():
    cfg = BuddyConfig(config_timeout=4.0)
    ctx, (allocator, requester) = build(chain(2), cfg, enter_gap=10.0)
    ctx.sim.run(until=5.0)
    requester.on_enter()  # asks the allocator and waits config_timeout
    assert requester._awaited[RETRY].deadline == 5.0 + 4.0
    requester.on_message(
        Message(BD_NACK, allocator.node_id, requester.node_id))
    assert requester.ip is None
    assert requester._awaited[RETRY].deadline == 5.0 + 4.0 * 0.5


def test_configured_agent_ignores_a_nack():
    ctx, (allocator, requester) = build(chain(2))
    ctx.sim.run(until=15.0)
    ip = requester.ip
    assert ip is not None and RETRY not in requester._awaited
    requester.on_message(
        Message(BD_NACK, allocator.node_id, requester.node_id))
    assert requester.ip == ip and RETRY not in requester._awaited
