"""End-to-end scenario tests mirroring the examples."""

import pytest

from repro.core import ProtocolConfig
from repro.core.protocol import QuorumProtocolAgent
from repro.experiments import Scenario, ScenarioRunner
from repro.experiments.runner import PROTOCOLS
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.context import NetworkContext
from repro.net.node import Node


def spawn_convoy(ctx, cfg, base_id, origin, count, start_time,
                 spacing=110.0):
    agents = []
    for i in range(count):
        node = Node(base_id + i,
                    Stationary(Point(origin[0] + spacing * i, origin[1])))
        ctx.topology.add_node(node)
        agent = QuorumProtocolAgent(ctx, node, cfg)
        ctx.sim.schedule(start_time + 4.0 * i + 0.1, agent.on_enter)
        agents.append(agent)
    return agents


def test_convoy_merge_converges_to_one_network():
    """The examples/convoy_merge.py scenario, as a regression test."""
    ctx = NetworkContext.build(seed=3, transmission_range=150.0)
    cfg = ProtocolConfig(merge_check_interval=1.0)
    convoy_a = spawn_convoy(ctx, cfg, 0, (100.0, 200.0), 6, 0.0)
    convoy_b = spawn_convoy(ctx, cfg, 100, (100.0, 900.0), 6, 40.0)
    ctx.sim.run(until=90.0)
    assert ({a.network_id for a in convoy_a}
            != {b.network_id for b in convoy_b})
    for i, agent in enumerate(convoy_b):
        agent.node.mobility = Stationary(Point(100.0 + 110.0 * i, 320.0))
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 120.0)
    everyone = convoy_a + convoy_b
    assert all(a.is_configured() for a in everyone)
    assert len({a.network_id for a in everyone}) == 1
    seen = set()
    for agent in everyone:
        key = (agent.network_id, agent.ip)
        assert key not in seen
        seen.add(key)


def test_disaster_recovery_scenario():
    """The examples/disaster_recovery.py scenario, as a regression test."""
    scenario = Scenario.paper_default(
        num_nodes=80, seed=7,
        depart_fraction=0.3, abrupt_probability=1.0,
        depart_window=5.0, settle_time=50.0,
        uniform_arrival_fraction=0.0,
    )
    runner = ScenarioRunner(scenario, "quorum", ProtocolConfig())
    result = runner.run()
    assert result.information_loss_pct() <= 10.0
    assert result.uniqueness_ok()
    # Newcomers after the disaster still get configured.
    ctx = runner.ctx
    anchor = ctx.topology.nodes()[0].position(ctx.sim.now)
    newcomers = []
    for i in range(3):
        node = Node(1000 + i, Stationary(Point(anchor.x + 20 * i, anchor.y)))
        ctx.topology.add_node(node)
        agent = QuorumProtocolAgent(ctx, node, ProtocolConfig())
        ctx.sim.schedule(2.0 * i + 0.1, agent.on_enter)
        newcomers.append(agent)
    ctx.sim.run(until=ctx.sim.now + 40.0)
    assert sum(1 for a in newcomers if a.is_configured()) >= 2


def test_hotspot_arrivals_with_tight_space():
    """Borrowing keeps a hot spot configurable (the paper's §I claim)."""
    from repro.experiments.figures import quorum_cfg
    scenario = Scenario.paper_default(
        num_nodes=50, seed=2,
        hotspot=(500.0, 500.0), hotspot_radius=100.0,
        settle_time=25.0,
    )
    runner = ScenarioRunner(scenario, "quorum",
                            quorum_cfg(address_space_bits=7))
    result = runner.run()
    assert result.configuration_success_rate() >= 0.9
    assert result.uniqueness_ok()


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_high_churn_soak(protocol):
    """Every protocol survives sustained churn without crashing, and
    the quorum protocol additionally keeps addresses unique."""
    scenario = Scenario.paper_default(
        num_nodes=50, seed=9,
        depart_fraction=0.6, abrupt_probability=0.5,
        depart_window=40.0, settle_time=40.0,
    )
    result = ScenarioRunner(scenario, protocol).run()
    assert result.num_nodes == 50
    if protocol == "quorum":
        assert result.uniqueness_ok()
