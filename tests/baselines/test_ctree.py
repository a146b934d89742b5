"""C-tree baseline [3]: coordinator pools, C-root reporting."""

from repro.baselines.ctree import CT_NACK, CTreeAgent, CTreeConfig
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Node
from repro.net.agent import RETRY
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.stats import Category


def build(positions, cfg=None, enter_gap=3.0):
    ctx = NetworkContext.build(seed=1, transmission_range=150.0)
    cfg = cfg or CTreeConfig()
    agents = []
    for i, (x, y) in enumerate(positions):
        node = Node(i, Stationary(Point(x, y)))
        ctx.topology.add_node(node)
        agent = CTreeAgent(ctx, node, cfg)
        ctx.sim.schedule(enter_gap * i + 0.1, agent.on_enter)
        agents.append(agent)
    return ctx, agents


def chain(n):
    return [(100 + 120 * i, 500) for i in range(n)]


def test_first_node_is_root_coordinator():
    ctx, agents = build(chain(1))
    ctx.sim.run(until=10.0)
    assert agents[0].is_root and agents[0].is_coordinator
    assert agents[0].ip == 0


def test_nearby_node_becomes_normal_node():
    ctx, agents = build(chain(2))
    ctx.sim.run(until=15.0)
    assert not agents[1].is_coordinator
    assert agents[1].ip is not None
    assert agents[1].root_id == agents[0].node_id


def test_distant_node_becomes_coordinator_with_block():
    ctx, agents = build(chain(4))  # node 3 beyond 2 hops
    ctx.sim.run(until=30.0)
    assert agents[3].is_coordinator and not agents[3].is_root
    assert agents[3].pool is not None
    assert agents[3].pool.total_count() > 1


def test_coordinators_report_to_root():
    cfg = CTreeConfig(report_interval=2.0)
    ctx, agents = build(chain(4), cfg)
    ctx.sim.run(until=40.0)
    assert agents[3].ever_reported
    assert agents[3].node_id in agents[0].coordinator_last_report
    assert ctx.stats.hops[Category.MAINTENANCE] > 0


def test_addresses_unique():
    ctx, agents = build(chain(6))
    ctx.sim.run(until=60.0)
    ips = [a.ip for a in agents if a.ip is not None]
    assert len(ips) == 6
    assert len(set(ips)) == 6


def test_configuration_is_cheap():
    ctx, agents = build(chain(3), CTreeConfig(report_interval=1000.0))
    ctx.sim.run(until=30.0)
    assert all(a.config_latency_hops <= 4 for a in agents
               if a.config_latency_hops is not None)


def test_root_reclaims_silent_coordinator():
    cfg = CTreeConfig(report_interval=2.0, stale_reports=2)
    ctx, agents = build(chain(4), cfg)
    ctx.sim.run(until=30.0)
    coordinator = agents[3]
    space = coordinator.pool.total_count()
    root_before = agents[0].pool.total_count()
    coordinator.vanish()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert ctx.stats.hops[Category.RECLAMATION] > 0
    assert agents[0].pool.total_count() == root_before + space


def test_return_goes_to_nearest_coordinator_not_allocator():
    """The fragmentation property the paper notes for [3]."""
    ctx, agents = build(chain(5))
    ctx.sim.run(until=50.0)
    # Node 4 was configured by coordinator 3; move it next to the root.
    leaver = agents[4]
    allocator = ctx.agent_of(leaver.parent_id)
    leaver.node.mobility = Stationary(Point(100, 560))
    ctx.topology.invalidate()
    address = leaver.ip
    allocator_before = len(allocator.pool.free) if allocator.pool else 0
    leaver.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 10.0)
    # The root (nearest coordinator now), not the allocator, got it.
    assert address in agents[0].pool.free
    if allocator.pool is not None:
        assert len(allocator.pool.free) == allocator_before


def test_new_root_elected_when_root_dies():
    cfg = CTreeConfig(report_interval=2.0)
    ctx, agents = build(chain(7), cfg)
    ctx.sim.run(until=60.0)
    coordinators = [a for a in agents if a.is_coordinator and not a.is_root]
    assert coordinators
    agents[0].vanish()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    roots = [a for a in agents if a.is_root and a.node.alive]
    assert len(roots) >= 1


def test_nack_rearms_an_unconfigured_requester_at_half_its_timeout():
    cfg = CTreeConfig(config_timeout=4.0)
    ctx, (allocator, requester) = build(chain(2), cfg, enter_gap=10.0)
    ctx.sim.run(until=5.0)
    requester.on_enter()  # asks the allocator and waits config_timeout
    assert requester._awaited[RETRY].deadline == 5.0 + 4.0
    requester.on_message(
        Message(CT_NACK, allocator.node_id, requester.node_id))
    assert requester.ip is None
    assert requester._awaited[RETRY].deadline == 5.0 + 4.0 * 0.5


def test_configured_agent_ignores_a_nack():
    ctx, (allocator, requester) = build(chain(2))
    ctx.sim.run(until=15.0)
    ip = requester.ip
    assert ip is not None and RETRY not in requester._awaited
    requester.on_message(
        Message(CT_NACK, allocator.node_id, requester.node_id))
    assert requester.ip == ip and RETRY not in requester._awaited
