"""Equivalence of the spatial-grid engine against the networkx oracle.

The native engine must be *bit-identical* to the legacy implementation,
not merely correct: downstream code iterates its dicts (flood receiver
tuples, merge scans act on the first foreign network id seen), so these
tests compare iteration ORDER as well as content.
"""

import random

import pytest

from repro.geometry import Point
from repro.geometry.region import Region
from repro.mobility.base import Stationary
from repro.mobility.waypoint import RandomWaypoint
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category, MessageStats
from repro.net.topology import Topology
from repro.net.transport import Scope, Transport
from repro.sim.engine import Simulator

pytest.importorskip("networkx")

from tests.net.oracle import OracleTopology
from tests.net.structure import eccentricity_from, edges, has_edge


def build_pair(n, area, tr, speed, seed):
    """The same population in both engines (independent but identically
    seeded mobility, so positions match bit for bit)."""
    engines = []
    for _ in range(2):
        sim = Simulator(seed=seed)
        region = Region(area, area)
        rng = random.Random(seed)
        nodes = []
        for i in range(n):
            start = region.random_point(rng)
            mobility = (
                RandomWaypoint(region, start, speed,
                               random.Random(seed * 1000 + i))
                if speed else Stationary(start)
            )
            nodes.append(Node(node_id=i, mobility=mobility))
        engines.append((sim, nodes))
    sim_a, nodes_a = engines[0]
    sim_b, nodes_b = engines[1]
    native = Topology(sim_a, tr)
    oracle = OracleTopology(sim_b, tr)
    for node in nodes_a:
        native.add_node(node)
    for node in nodes_b:
        oracle.add_node(node)
    return sim_a, native, sim_b, oracle


CASES = [
    # (n, area, tr, speed, seed)
    (1, 300, 150, 0, 1),
    (25, 400, 120, 0, 2),
    (60, 800, 150, 0, 3),
    (60, 500, 100, 10, 4),
    (80, 1000, 250, 20, 5),
    (40, 300, 80, 5, 6),
]


@pytest.mark.parametrize("n,area,tr,speed,seed", CASES)
def test_full_equivalence_including_order(n, area, tr, speed, seed):
    sim_a, native, sim_b, oracle = build_pair(n, area, tr, speed, seed)
    for t in (0.0, 1.3, 4.0):
        sim_a._now = t
        sim_b._now = t
        graph = oracle.graph()
        assert sorted(edges(native)) == sorted(
            tuple(sorted(edge)) for edge in graph.edges())
        assert native.components() == oracle.components()
        for i in range(n):
            # list() preserves dict order — content AND order must match
            assert native.neighbors(i) == oracle.neighbors(i)
            assert (list(native.reachable(i).items())
                    == list(oracle.reachable(i).items()))
            for k in (1, 2, 3):
                assert native.within_hops(i, k) == oracle.within_hops(i, k)
            assert eccentricity_from(native, i) == oracle.eccentricity_from(i)
            for j in range(0, n, 5):
                assert native.hops(i, j) == oracle.hops(i, j)


def test_equivalence_under_membership_churn():
    """Incremental add/remove/invalidate must match full oracle rebuilds."""
    rng = random.Random(17)
    sim_a, native, sim_b, oracle = build_pair(40, 500, 150, 0, 7)
    pool_native = {node.node_id: node for node in native.nodes()}
    pool_oracle = {node.node_id: node for node in oracle.nodes()}
    present = set(pool_native)
    spare = []
    t = 0.0
    for step in range(60):
        roll = rng.random()
        if roll < 0.25 and spare:
            nid = spare.pop()
            present.add(nid)
            native.add_node(pool_native[nid])
            oracle.add_node(pool_oracle[nid])
        elif roll < 0.5 and present:
            nid = rng.choice(sorted(present))
            present.discard(nid)
            spare.append(nid)
            native.remove_node(pool_native[nid])
            oracle.remove_node(pool_oracle[nid])
        elif roll < 0.65 and present:
            nid = rng.choice(sorted(present))
            pool_native[nid].alive = not pool_native[nid].alive
            pool_oracle[nid].alive = not pool_oracle[nid].alive
            native.invalidate()
            oracle.invalidate()
        else:
            t += rng.choice([0.1, 0.7, 2.0])
            sim_a._now = t
            sim_b._now = t
        for i in sorted(present):
            assert native.neighbors(i) == oracle.neighbors(i), step
            assert (list(native.reachable(i).items())
                    == list(oracle.reachable(i).items())), step
        assert native.components() == oracle.components(), step


def test_bounded_reachable_is_prefix_of_full():
    """A bounded query must be the level-filtered full dict, same order."""
    _, native, _, oracle = build_pair(50, 600, 150, 0, 9)
    for i in range(50):
        full = oracle.reachable(i)
        for k in (1, 2, 3):
            bounded = native.reachable(i, max_hops=k)
            expected = {n: d for n, d in full.items() if d <= k}
            assert list(bounded.items()) == list(expected.items())


def test_flood_outcomes_byte_identical_to_oracle_transport():
    """SendOutcome (receivers tuple, cost, eccentricity) is unchanged.

    The same flood is issued through a Transport over each engine; the
    frozen SendOutcome dataclasses must compare equal — receiver ORDER
    included, since delivery scheduling follows it.
    """
    sim_a, native, sim_b, oracle = build_pair(60, 800, 150, 0, 21)
    transport_native = Transport(sim_a, native, MessageStats())
    transport_oracle = Transport(sim_b, oracle, MessageStats())
    for src in range(0, 60, 7):
        for max_hops in (None, 2, 3):
            out_native = transport_native.send(
                native.get(src), None, Message("FLOOD", src, None),
                category=Category.CONFIG, scope=Scope.FLOOD,
                max_hops=max_hops)
            out_oracle = transport_oracle.send(
                oracle.get(src), None, Message("FLOOD", src, None),
                category=Category.CONFIG, scope=Scope.FLOOD,
                max_hops=max_hops)
            assert out_native == out_oracle
            assert out_native.receivers == out_oracle.receivers
            assert out_native.eccentricity == out_oracle.eccentricity
            assert out_native.cost_hops == out_oracle.cost_hops


def test_exact_range_edge_matches_oracle():
    """The <= comparison at exactly transmission_range must agree."""
    sim_a = Simulator()
    sim_b = Simulator()
    native = Topology(sim_a, 150.0)
    oracle = OracleTopology(sim_b, 150.0)
    coordinates = [(0.0, 0.0), (150.0, 0.0), (150.0 + 1e-9, 100.0)]
    for i, (x, y) in enumerate(coordinates):
        native.add_node(Node(i, Stationary(Point(x, y))))
        oracle.add_node(Node(i, Stationary(Point(x, y))))
    assert has_edge(native, 0, 1)
    assert oracle.graph().has_edge(0, 1)
    for i in range(3):
        assert native.neighbors(i) == oracle.neighbors(i)
