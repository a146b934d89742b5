"""Shared builders for protocol-level tests.

Most core-protocol tests run on small hand-built static topologies: a
line of nodes spaced one hop apart is enough to exercise role decisions
(2-hop rule), QDSet formation (3-hop adjacency) and multi-hop routing.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.config import ProtocolConfig
from repro.core.protocol import QuorumProtocolAgent
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.context import NetworkContext
from repro.net.node import Node
from repro.sim.timers import PeriodicTimer

HOP = 120.0  # meters between chain neighbors; 1 hop at tr = 150 m


def make_ctx(seed: int = 1, tr: float = 150.0) -> NetworkContext:
    return NetworkContext.build(seed=seed, transmission_range=tr)


def add_node(ctx: NetworkContext, node_id: int, x: float, y: float = 500.0,
             cfg: Optional[ProtocolConfig] = None) -> QuorumProtocolAgent:
    """Add a stationary node with a quorum agent (not yet entered)."""
    node = Node(node_id, Stationary(Point(x, y)))
    ctx.topology.add_node(node)
    return QuorumProtocolAgent(ctx, node, cfg or ProtocolConfig())


def line_agents(
    ctx: NetworkContext,
    count: int,
    spacing: float = HOP,
    cfg: Optional[ProtocolConfig] = None,
    start_x: float = 100.0,
    enter_gap: float = 5.0,
) -> List[QuorumProtocolAgent]:
    """A chain of ``count`` nodes entering sequentially.

    With default spacing each link is one hop; node i sits i hops from
    node 0.  ``enter_gap`` seconds between entries lets each node finish
    configuring (including the first node's T_e * Max_r wait) before the
    next arrives.
    """
    cfg = cfg or ProtocolConfig()
    agents = []
    for i in range(count):
        agent = add_node(ctx, i, start_x + spacing * i, cfg=cfg)
        ctx.sim.schedule(enter_gap * i + 0.1, agent.on_enter)
        agents.append(agent)
    return agents


def run_until_quiet(ctx: NetworkContext, until: float) -> None:
    ctx.sim.run(until=until)


def positions_cluster(
    ctx: NetworkContext,
    coordinates: Sequence[Tuple[float, float]],
    cfg: Optional[ProtocolConfig] = None,
    enter_gap: float = 5.0,
) -> List[QuorumProtocolAgent]:
    """Agents at explicit coordinates, entering sequentially."""
    cfg = cfg or ProtocolConfig()
    agents = []
    for i, (x, y) in enumerate(coordinates):
        agent = add_node(ctx, i, x, y, cfg=cfg)
        ctx.sim.schedule(enter_gap * i + 0.1, agent.on_enter)
        agents.append(agent)
    return agents


def passes_over(timer: PeriodicTimer) -> bool:
    """Whether ``timer``'s next fire would re-arm it without a call:
    it is parked, the simulator's park gate reads True, and the read
    left it parked."""
    return (timer._parked and timer._sim.park_gate()
            and timer._parked)


def sends_from(ctx: NetworkContext, node_id: int) -> List[str]:
    """Record the type of every message ``node_id`` hands the transport
    from now on; return the list they are recorded in."""
    sent: List[str] = []
    send = ctx.transport.send

    def recording(src: Node, dst: Optional[Node], msg: Any,
                  **kwargs: Any) -> Any:
        if src.node_id == node_id:
            sent.append(msg.mtype)
        return send(src, dst, msg, **kwargs)

    ctx.transport.send = recording
    return sent


def assert_unique_addresses(agents: Sequence[QuorumProtocolAgent]) -> None:
    seen = {}
    for agent in agents:
        if agent.ip is None or not agent.node.alive:
            continue
        key = (agent.network_id, agent.ip)
        assert key not in seen, (
            f"duplicate address {key}: nodes {seen[key]} and {agent.node_id}"
        )
        seen[key] = agent.node_id
