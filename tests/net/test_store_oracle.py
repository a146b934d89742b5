"""SoA engine vs oracle under churn heavy enough to exercise the store.

test_topology_oracle.py pins bit-identity for stable populations and
light membership churn; these tests target the struct-of-arrays layer
specifically: eviction must scrub every array and every grid cell, and
enough eviction churn to force slot *compaction* (renumbering) must
leave query results — content and iteration order — bit-identical to
the oracle's full rebuilds throughout.
"""

import random

import pytest

from repro.geometry import Point
from repro.geometry.region import Region
from repro.mobility.base import Stationary
from repro.mobility.waypoint import RandomWaypoint
from repro.net.node import Node
from repro.net.topology import Topology
from repro.sim.engine import Simulator

pytest.importorskip("networkx")

from tests.net.oracle import OracleTopology
from tests.net.structure import edges, node_ids


def _population(n, area, speed, seed):
    region = Region(area, area)
    rng = random.Random(seed)
    nodes = []
    for i in range(n):
        start = region.random_point(rng)
        mobility = (
            RandomWaypoint(region, start, speed, random.Random(seed * 1000 + i))
            if speed else Stationary(start)
        )
        nodes.append(Node(node_id=i, mobility=mobility))
    return nodes


def _pair(n, area, tr, speed, seed):
    sim_a, sim_b = Simulator(seed=seed), Simulator(seed=seed)
    native = Topology(sim_a, tr)
    oracle = OracleTopology(sim_b, tr)
    for node in _population(n, area, speed, seed):
        native.add_node(node)
    for node in _population(n, area, speed, seed):
        oracle.add_node(node)
    return sim_a, native, sim_b, oracle


def _assert_equivalent(native, oracle, present, probe_every=1):
    ids = sorted(present)
    for i in ids[::probe_every]:
        assert native.neighbors(i) == oracle.neighbors(i)
        assert (list(native.reachable(i).items())
                == list(oracle.reachable(i).items()))
        assert native.within_hops(i, 3) == oracle.within_hops(i, 3)
    assert native.components() == oracle.components()
    assert sorted(edges(native)) == sorted(
        tuple(sorted(e)) for e in oracle.graph().edges())


@pytest.mark.parametrize("n,area,tr,speed,seed", [
    (120, 1200, 150, 0, 31),
    (200, 1500, 150, 0, 32),
    (150, 1200, 120, 15, 33),
])
def test_soa_engine_bit_identical_at_scale(n, area, tr, speed, seed):
    """Property bar from the issue: bit-identical queries at n<=200."""
    sim_a, native, sim_b, oracle = _pair(n, area, tr, speed, seed)
    for t in (0.0, 1.7, 5.0):
        sim_a._now = t
        sim_b._now = t
        _assert_equivalent(native, oracle, range(n), probe_every=7)


def test_permanent_crash_scrubs_every_shard_and_array():
    """Eviction leaves no trace: not in any grid bucket, any adjacency
    list, any BFS result, and the store slot is tombstoned."""
    sim = Simulator()
    native = Topology(sim, 150.0)
    for node in _population(80, 600, 0, 41):
        native.add_node(node)
    native.neighbors(0)  # build
    victim = native.get(13)
    assert victim is not None
    native.remove_node(victim)
    native.neighbors(0)  # rebuild (delta path)
    store = native.store
    assert 13 not in store
    slot = None  # the victim's old slot must be inert everywhere
    for s, node in enumerate(store.nodes):
        assert node is None or node.node_id != 13
        if node is None:
            slot = s
    assert slot is not None and store.tombstones == 1
    for bucket in native._grid.cells.values():
        assert slot not in bucket
    for neighbors in native._adj:
        assert slot not in neighbors
    for i in range(80):
        if i == 13:
            continue
        assert 13 not in native.reachable(i)
        assert all(other != 13 for other, _ in native.within_hops(i, 3))
    assert native.get(13) is None
    assert 13 not in node_ids(native)


def test_eviction_churn_through_compaction_matches_oracle():
    """Enough evictions to renumber slots (compaction) mid-scenario;
    every intermediate graph must still match the oracle exactly."""
    rng = random.Random(55)
    sim_a, native, sim_b, oracle = _pair(150, 1000, 150, 0, 56)
    pool_native = {node.node_id: node for node in native.nodes()}
    pool_oracle = {node.node_id: node for node in oracle.nodes()}
    present = set(pool_native)
    compaction_seen = False
    next_id = 150
    region = Region(1000, 1000)
    for step in range(260):
        if rng.random() < 0.7 and len(present) > 20:
            nid = rng.choice(sorted(present))
            present.discard(nid)
            native.remove_node(pool_native.pop(nid))
            oracle.remove_node(pool_oracle.pop(nid))
        else:
            # Fresh joins keep the population from draining and force
            # post-compaction slot assignment to prove itself too.
            point_rng = random.Random(900 + next_id)
            start = region.random_point(point_rng)
            for pool, topo in ((pool_native, native), (pool_oracle, oracle)):
                node = Node(next_id, Stationary(start))
                pool[next_id] = node
                topo.add_node(node)
            present.add(next_id)
            next_id += 1
        compaction_seen = (compaction_seen
                           or native.store.layout_version > 0)
        if step % 10 == 0 or native.store.layout_version > 0:
            _assert_equivalent(native, oracle, present, probe_every=9)
    assert compaction_seen, "churn never triggered compaction"
    _assert_equivalent(native, oracle, present)
