"""Unit tests for message transport, flooding and hop accounting."""

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import (
    Category,
    Message,
    MessageStats,
    Node,
    Scope,
    Topology,
    Transport,
)
from repro.sim import Simulator


class Recorder:
    def __init__(self):
        self.received = []

    def on_message(self, msg):
        self.received.append(msg)


def make_net(positions, tr=150.0):
    sim = Simulator(seed=1)
    stats = MessageStats()
    topo = Topology(sim, transmission_range=tr)
    transport = Transport(sim, topo, stats)
    agents = []
    for i, (x, y) in enumerate(positions):
        node = Node(i, Stationary(Point(x, y)))
        node.agent = Recorder()
        topo.add_node(node)
        agents.append(node)
    return sim, topo, transport, stats, agents


def test_unicast_delivers_and_charges_route_length():
    sim, _, transport, stats, nodes = make_net([(0, 0), (120, 0), (240, 0)])
    msg = Message("PING", 0, 2)
    outcome = transport.send(nodes[0], nodes[2], msg, category=Category.CONFIG)
    assert outcome.ok and outcome.hops == 2
    assert stats.hops[Category.CONFIG] == 2
    sim.run()
    assert len(nodes[2].agent.received) == 1
    assert nodes[2].agent.received[0].hops == 2


def test_unicast_latency_proportional_to_hops():
    sim, _, transport, _, nodes = make_net([(0, 0), (120, 0), (240, 0)])
    transport.send(nodes[0], nodes[2], Message("PING", 0, 2),
                   category=Category.CONFIG)
    sim.run()
    assert sim.now == 2 * transport.per_hop_delay


def test_unicast_unreachable_fails_without_charge():
    sim, _, transport, stats, nodes = make_net([(0, 0), (900, 900)])
    outcome = transport.send(nodes[0], nodes[1], Message("PING", 0, 1),
                             category=Category.CONFIG)
    assert not outcome.ok
    assert stats.hops[Category.CONFIG] == 0
    sim.run()
    assert nodes[1].agent.received == []


def test_unicast_to_dead_node_fails():
    sim, topo, transport, _, nodes = make_net([(0, 0), (100, 0)])
    nodes[1].kill()
    topo.invalidate()
    outcome = transport.send(nodes[0], nodes[1], Message("PING", 0, 1),
                             category=Category.CONFIG)
    assert not outcome.ok


def test_dead_sender_cannot_send():
    _, _, transport, _, nodes = make_net([(0, 0), (100, 0)])
    nodes[0].kill()
    outcome = transport.send(nodes[0], nodes[1], Message("PING", 0, 1),
                             category=Category.CONFIG)
    assert not outcome.ok


def test_broadcast_reaches_neighbors_only():
    sim, _, transport, stats, nodes = make_net(
        [(0, 0), (100, 0), (140, 0), (400, 0)])
    outcome = transport.send(nodes[0], None, Message("HELLO", 0, None),
                             category=Category.HELLO, scope=Scope.NEIGHBORS)
    sim.run()
    assert sorted(nid for nid, _ in outcome.receivers) == [1, 2]
    assert stats.hops[Category.HELLO] == 1
    assert nodes[3].agent.received == []


def test_broadcast_fanout_shares_one_frozen_copy():
    sim, _, transport, _, nodes = make_net([(0, 0), (100, 0), (140, 0)])
    transport.send(nodes[0], None, Message("HELLO", 0, None),
                   category=Category.HELLO, scope=Scope.NEIGHBORS)
    sim.run()
    m1 = nodes[1].agent.received[0]
    m2 = nodes[2].agent.received[0]
    # All 1-hop receivers share the same frozen message object.
    assert m1 is m2
    assert m1.hops == 1
    assert transport.perf.counters.get("msg_fanout_shared") == 1


def test_flood_reaches_component():
    sim, _, transport, stats, nodes = make_net(
        [(0, 0), (120, 0), (240, 0), (900, 900)])
    outcome = transport.send(nodes[0], None, Message("FLOOD", 0, None),
                             category=Category.RECLAMATION, scope=Scope.FLOOD)
    sim.run()
    assert sorted(nid for nid, _ in outcome.receivers) == [1, 2]
    assert outcome.eccentricity == 2
    # One transmission per forwarding node: source + both receivers.
    assert outcome.cost_hops == 3
    assert stats.hops[Category.RECLAMATION] == 3
    assert nodes[3].agent.received == []


def test_scoped_flood_respects_max_hops():
    sim, _, transport, _, nodes = make_net(
        [(0, 0), (120, 0), (240, 0), (360, 0)])
    outcome = transport.send(nodes[0], None, Message("FLOOD", 0, None),
                             category=Category.RECLAMATION, scope=Scope.FLOOD,
                             max_hops=2)
    sim.run()
    assert sorted(nid for nid, _ in outcome.receivers) == [1, 2]
    assert len(nodes[3].agent.received) == 0
    # Source + node 1 forward; node 2 is at the edge and does not.
    assert outcome.cost_hops == 2


def test_flood_fanout_shares_copies_per_hop_distance():
    sim, _, transport, _, nodes = make_net([(0, 0), (120, 0), (130, 0),
                                            (250, 0)])
    transport.send(nodes[0], None, Message("FLOOD", 0, None),
                   category=Category.CONFIG, scope=Scope.FLOOD)
    sim.run()
    m1 = nodes[1].agent.received[0]
    m2 = nodes[2].agent.received[0]
    m3 = nodes[3].agent.received[0]
    # Receivers at the same distance share one frozen copy; different
    # distances get distinct copies with the right hop stamp.
    assert m1 is m2
    assert m1 is not m3
    assert m1.hops == 1 and m3.hops == 2
    assert transport.perf.counters.get("msg_fanout_shared") == 1
