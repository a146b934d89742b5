"""MANETconf baseline: full replication, universal assent."""

import pytest

from repro.baselines.manetconf import ManetconfAgent, ManetconfConfig
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Node
from repro.net.context import NetworkContext
from repro.net.stats import Category

from tests.helpers import sends_from


def build(positions, cfg=None, enter_gap=5.0):
    ctx = NetworkContext.build(seed=1, transmission_range=150.0)
    cfg = cfg or ManetconfConfig()
    agents = []
    for i, (x, y) in enumerate(positions):
        node = Node(i, Stationary(Point(x, y)))
        ctx.topology.add_node(node)
        agent = ManetconfAgent(ctx, node, cfg)
        ctx.sim.schedule(enter_gap * i + 0.1, agent.on_enter)
        agents.append(agent)
    return ctx, agents


def chain(n):
    return [(100 + 120 * i, 500) for i in range(n)]


def test_first_node_takes_address_zero():
    ctx, agents = build(chain(1))
    ctx.sim.run(until=20.0)
    assert agents[0].ip == 0
    assert agents[0].in_use == {0}


def test_all_nodes_get_unique_addresses():
    ctx, agents = build(chain(5))
    ctx.sim.run(until=80.0)
    ips = [a.ip for a in agents]
    assert all(ip is not None for ip in ips)
    assert len(set(ips)) == 5


def test_tables_converge_via_commit_floods():
    ctx, agents = build(chain(4))
    ctx.sim.run(until=70.0)
    expected = {a.ip for a in agents}
    for agent in agents:
        assert agent.in_use == expected


def test_configuration_floods_whole_network():
    ctx, agents = build(chain(4))
    ctx.sim.run(until=70.0)
    # Every configuration floods twice (request + commit) plus unicast
    # assents: far more than the chain's 3 + 2 + 2 hop minimum.
    assert ctx.stats.hops[Category.CONFIG] > 20
    assert ctx.stats.messages[Category.CONFIG] > 12


def test_latency_includes_flood_round_trip():
    ctx, agents = build(chain(4))
    ctx.sim.run(until=70.0)
    last = agents[3]
    # Request 1 hop + flood eccentricity + farthest assent + assign.
    assert last.config_latency_hops >= 4


def test_graceful_departure_releases_address_everywhere():
    ctx, agents = build(chain(3))
    ctx.sim.run(until=50.0)
    departed_ip = agents[1].ip
    agents[1].depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 10.0)
    assert not agents[1].node.alive
    for agent in (agents[0], agents[2]):
        assert departed_ip not in agent.in_use
    assert ctx.stats.hops[Category.DEPARTURE] > 0


def test_silent_node_cleaned_up_on_next_configuration():
    ctx, agents = build(chain(3))
    ctx.sim.run(until=50.0)
    dead_ip = agents[2].ip
    agents[2].vanish()
    # A new node triggers a configuration; the dead node fails to
    # assent and is cleaned up.
    node = Node(99, Stationary(Point(220, 560)))
    ctx.topology.add_node(node)
    newcomer = ManetconfAgent(ctx, node, agents[0].cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert newcomer.ip is not None
    assert dead_ip not in agents[0].in_use
    assert ctx.stats.hops[Category.RECLAMATION] > 0


def test_network_id_shared():
    ctx, agents = build(chain(4))
    ctx.sim.run(until=70.0)
    assert len({a.network_id for a in agents}) == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4 step 2 (every reply "
                   "the protocol waits for): the session wait survives "
                   "power-off (ManetconfAgent.SURVIVORS)")
def test_an_initiator_powered_off_mid_session_sends_nothing():
    ctx, agents = build(chain(4))
    ctx.sim.run(until=30.0)
    # Node 1 left silently, so the session waits out its reply timeout.
    agents[1].vanish()
    node = Node(4, Stationary(Point(580, 500)))
    ctx.topology.add_node(node)
    ManetconfAgent(ctx, node, agents[0].cfg).on_enter()
    deadline = ctx.sim.now + 1.0
    while ctx.sim.now < deadline and not any(a._sessions for a in agents):
        ctx.sim.run(until=ctx.sim.now + 0.001)
    (initiator,) = [agent for agent in agents if agent._sessions]
    sent = sends_from(ctx, initiator.node_id)
    initiator.vanish()
    ctx.sim.run(until=ctx.sim.now + 2 * initiator.cfg.reply_timeout)
    assert sent == []
