"""Tests for the unified Transport.send endpoint (the only send surface)."""

import pickle

import pytest

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Category, Message, Node, Scope, SendOutcome
from repro.net.context import NetworkContext
from repro.net import transport as transport_module


class Recorder:
    def __init__(self):
        self.received = []

    def on_message(self, msg):
        self.received.append(msg.mtype)


def make_net(count=4):
    ctx = NetworkContext.build(seed=1, transmission_range=150.0)
    nodes = []
    for i in range(count):
        node = Node(i, Stationary(Point(100 + 120 * i, 500)))
        node.agent = Recorder()
        ctx.topology.add_node(node)
        nodes.append(node)
    return ctx, nodes


# ---------------------------------------------------------------------------
# The unified endpoint
# ---------------------------------------------------------------------------
def test_unicast_outcome():
    ctx, nodes = make_net()
    outcome = ctx.transport.send(nodes[0], nodes[2], Message("PING", 0, 2),
                                 category=Category.CONFIG)
    ctx.sim.run()
    assert outcome.ok and outcome.delivered
    assert outcome.hops == outcome.cost_hops == outcome.eccentricity == 2
    assert outcome.receivers == ((2, 2),)
    assert outcome.dropped == 0
    assert nodes[2].agent.received == ["PING"]


def test_unicast_failure_outcome():
    ctx, nodes = make_net()
    nodes[2].kill()
    ctx.topology.invalidate()
    outcome = ctx.transport.send(nodes[0], nodes[2], Message("PING", 0, 2),
                                 category=Category.CONFIG)
    assert outcome == SendOutcome.failure()
    assert not outcome.ok and not outcome.delivered


def test_neighbors_outcome():
    ctx, nodes = make_net()
    outcome = ctx.transport.send(nodes[1], None, Message("HELLO", 1, None),
                                 category=Category.CONFIG,
                                 scope=Scope.NEIGHBORS)
    ctx.sim.run()
    assert outcome.ok
    assert sorted(nid for nid, _ in outcome.receivers) == [0, 2]
    assert outcome.cost_hops == 1
    assert nodes[0].agent.received == ["HELLO"]
    assert nodes[3].agent.received == []


def test_flood_outcome():
    ctx, nodes = make_net()
    outcome = ctx.transport.send(nodes[0], None, Message("WAVE", 0, None),
                                 category=Category.RECLAMATION,
                                 scope=Scope.FLOOD)
    ctx.sim.run()
    assert outcome.ok
    assert sorted(outcome.receivers) == [(1, 1), (2, 2), (3, 3)]
    assert outcome.eccentricity == 3
    # Cost: source + every receiver retransmits (unbounded flood).
    assert outcome.cost_hops == 4


def test_category_is_keyword_only():
    ctx, nodes = make_net()
    with pytest.raises(TypeError):
        ctx.transport.send(nodes[0], nodes[1], Message("PING", 0, 1),
                           Category.CONFIG)


def test_scope_destination_mismatch_rejected():
    ctx, nodes = make_net()
    with pytest.raises(ValueError, match="requires a destination"):
        ctx.transport.send(nodes[0], None, Message("PING", 0, None),
                           category=Category.CONFIG)
    with pytest.raises(ValueError, match="takes no destination"):
        ctx.transport.send(nodes[0], nodes[1], Message("WAVE", 0, None),
                           category=Category.CONFIG, scope=Scope.FLOOD)


def test_outcome_is_frozen_slotted_and_picklable():
    outcome = SendOutcome(True, 2, ((2, 2),), 2, 2, 0)
    with pytest.raises(Exception):
        outcome.ok = False
    assert not hasattr(outcome, "__dict__")
    assert pickle.loads(pickle.dumps(outcome)) == outcome


def test_legacy_surface_is_gone():
    """The PR 2 deprecation shims were removed after their window."""
    for name in ("unicast", "broadcast_1hop", "flood"):
        assert not hasattr(transport_module.Transport, name)
    for name in ("Delivery", "FloodResult", "node_msg"):
        assert not hasattr(transport_module, name)
