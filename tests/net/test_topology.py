"""Unit tests for the unit-disk topology and hop-count queries."""

import pytest

from repro.geometry import Point, Region, distance
from repro.mobility import RandomWaypoint
from repro.mobility.base import Stationary
from repro.net import Node, Topology
from repro.sim import Simulator
from repro.sim.rng import generator_from_seed


def make_topology(positions, tr=150.0, seed=1):
    sim = Simulator(seed=seed)
    topo = Topology(sim, transmission_range=tr)
    for i, (x, y) in enumerate(positions):
        topo.add_node(Node(i, Stationary(Point(x, y))))
    return sim, topo


def test_edges_respect_range():
    _, topo = make_topology([(0, 0), (100, 0), (300, 0)])
    assert topo.has_edge(0, 1)
    assert not topo.has_edge(0, 2)
    assert not topo.has_edge(1, 2)
    assert list(topo.edges()) == [(0, 1)]


def test_edge_at_exact_range():
    _, topo = make_topology([(0, 0), (150, 0)])
    assert topo.has_edge(0, 1)


def test_hops_along_chain():
    _, topo = make_topology([(0, 0), (120, 0), (240, 0), (360, 0)])
    assert topo.hops(0, 0) == 0
    assert topo.hops(0, 1) == 1
    assert topo.hops(0, 3) == 3
    assert topo.hops(3, 0) == 3


def test_hops_unreachable_is_none():
    _, topo = make_topology([(0, 0), (1000, 1000)])
    assert topo.hops(0, 1) is None


def test_neighbors():
    _, topo = make_topology([(0, 0), (100, 0), (200, 0)])
    assert sorted(topo.neighbors(1)) == [0, 2]
    assert topo.neighbors(0) == [1]
    assert topo.neighbors(99) == []


def test_within_hops():
    _, topo = make_topology([(0, 0), (120, 0), (240, 0), (360, 0)])
    assert sorted(topo.within_hops(0, 2)) == [(1, 1), (2, 2)]


def test_reachable_includes_self():
    _, topo = make_topology([(0, 0), (120, 0)])
    reachable = topo.reachable(0)
    assert reachable[0] == 0
    assert reachable[1] == 1


def test_eccentricity():
    _, topo = make_topology([(0, 0), (120, 0), (240, 0)])
    assert topo.eccentricity_from(0) == 2
    assert topo.eccentricity_from(1) == 1


def test_components():
    _, topo = make_topology([(0, 0), (100, 0), (900, 900), (950, 900)])
    components = sorted(topo.components(), key=min)
    assert components == [{0, 1}, {2, 3}]


def test_same_partition():
    _, topo = make_topology([(0, 0), (100, 0), (900, 900)])
    assert topo.same_partition([0, 1])
    assert not topo.same_partition([0, 2])
    assert topo.same_partition([0])


def test_dead_nodes_excluded():
    _, topo = make_topology([(0, 0), (100, 0), (200, 0)])
    topo.get(1).kill()
    topo.invalidate()
    assert topo.hops(0, 2) is None  # relay died


def test_remove_node():
    _, topo = make_topology([(0, 0), (100, 0)])
    topo.remove_node(topo.get(1))
    assert topo.get(1) is None
    assert topo.hops(0, 1) is None


def test_duplicate_node_id_rejected():
    _, topo = make_topology([(0, 0)])
    with pytest.raises(ValueError):
        topo.add_node(Node(0, Stationary(Point(1, 1))))


def test_graph_refreshes_as_nodes_move():
    sim = Simulator(seed=1)
    topo = Topology(sim, transmission_range=150.0, refresh_interval=0.1)
    import random

    class Runner:
        """Deterministic straight-line mover."""

        def __init__(self, start, velocity):
            self.start, self.velocity = start, velocity

        def position(self, t):
            return Point(self.start.x + self.velocity * t, self.start.y)

    topo.add_node(Node(0, Stationary(Point(0, 0))))
    topo.add_node(Node(1, Runner(Point(100, 0), 50.0)))
    assert topo.hops(0, 1) == 1
    sim.schedule(5.0, lambda: None)
    sim.run()
    # At t=5 the mover is at x=350: out of range.
    assert topo.hops(0, 1) is None


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        Topology(Simulator(), transmission_range=0)


def test_bfs_cache_consistent_with_fresh_query():
    _, topo = make_topology([(0, 0), (120, 0), (240, 0)])
    first = topo.hops(0, 2)
    second = topo.hops(0, 2)
    assert first == second == 2


def test_remove_node_evicts_entry():
    """Eviction frees the population entry, not just the graph node."""
    _, topo = make_topology([(0, 0), (100, 0), (200, 0)])
    topo.remove_node(topo.get(1))
    assert topo.get(1) is None
    assert 1 not in topo._nodes
    assert len(topo._nodes) == 2


def test_permanent_crash_evicts_from_topology():
    """A fault crash with no restart removes the node outright."""
    from repro.faults.model import FaultModel
    from repro.faults.spec import CrashEvent, FaultSpec

    sim, topo = make_topology([(0, 0), (100, 0), (200, 0)])
    model = FaultModel(
        FaultSpec(crashes=(CrashEvent(node_id=1, at=1.0, restart_at=None),)),
        sim, topo)
    model.install()
    sim.run(until=2.0)
    assert topo.get(1) is None  # evicted, not merely dead
    assert topo.hops(0, 2) is None


def test_crash_with_restart_is_not_evicted():
    from repro.faults.model import FaultModel
    from repro.faults.spec import CrashEvent, FaultSpec

    sim, topo = make_topology([(0, 0), (100, 0), (200, 0)])
    model = FaultModel(
        FaultSpec(crashes=(CrashEvent(node_id=1, at=1.0, restart_at=3.0),)),
        sim, topo)
    model.install()
    sim.run(until=2.0)
    assert topo.get(1) is not None and not topo.get(1).alive
    assert topo.hops(0, 2) is None
    sim.run(until=4.0)
    assert topo.get(1).alive
    assert topo.hops(0, 2) == 2


def test_bounded_hops_query():
    _, topo = make_topology([(0, 0), (120, 0), (240, 0), (360, 0)])
    assert topo.hops(0, 3, max_hops=3) == 3
    assert topo.hops(0, 3, max_hops=2) is None
    assert topo.hops(0, 0, max_hops=1) == 0


def test_within_hops_after_deeper_cached_query():
    """A deep cached BFS must not leak >k entries into within_hops."""
    _, topo = make_topology([(0, 0), (120, 0), (240, 0), (360, 0)])
    topo.reachable(0)  # caches the full component walk
    assert sorted(topo.within_hops(0, 2)) == [(1, 1), (2, 2)]
    assert topo.reachable(0, max_hops=1) == {0: 0, 1: 1}


# ---------------------------------------------------------------------------
# Node-scoped invalidation (the crash/restart churn path)
# ---------------------------------------------------------------------------
# Long enough that one flipped node stays under the 25% dirty-fraction
# ceiling the delta path enforces (1 dirty of 7 alive).
CHAIN = [(100 * i, 0) for i in range(8)]
LAST = len(CHAIN) - 1


def counters(topo):
    return topo.perf.counters_snapshot()


def test_invalidate_nodes_equivalent_to_blanket_invalidate():
    """The delta path is an exact optimization: same graph either way."""
    _, scoped = make_topology(CHAIN)
    _, blanket = make_topology(CHAIN)
    for topo in (scoped, blanket):
        assert topo.hops(0, LAST) == LAST  # initial full build
    scoped.get(1).kill()
    scoped.invalidate_nodes([1])
    blanket.get(1).kill()
    blanket.invalidate()
    assert list(scoped.edges()) == list(blanket.edges())
    assert scoped.hops(0, LAST) is None and blanket.hops(0, LAST) is None
    # ...but only the blanket spelling paid for a second full rebuild.
    assert counters(scoped)["graph_full_rebuilds"] == 1
    assert counters(blanket)["graph_full_rebuilds"] == 2
    assert counters(scoped)["graph_delta_rebuilds"] == 1


def test_crash_restart_round_trip_rides_the_delta_path():
    _, topo = make_topology(CHAIN)
    assert topo.hops(0, LAST) == LAST
    base = counters(topo)
    topo.get(1).kill()
    topo.invalidate_nodes([1])
    assert topo.hops(0, LAST) is None
    topo.get(1).alive = True
    topo.invalidate_nodes([1])
    assert topo.hops(0, LAST) == LAST
    after = counters(topo)
    assert after["graph_node_invalidations"] - base.get(
        "graph_node_invalidations", 0) == 2
    assert after["graph_delta_rebuilds"] - base.get(
        "graph_delta_rebuilds", 0) == 2
    assert after["graph_full_rebuilds"] == base["graph_full_rebuilds"]


def test_invalidate_nodes_unknown_ids_are_noops():
    _, topo = make_topology(CHAIN)
    assert topo.hops(0, 1) == 1
    base = counters(topo)
    topo.invalidate_nodes([99, 100])  # never registered
    topo.invalidate_nodes([])
    assert topo.hops(0, 1) == 1
    after = counters(topo)
    # No known id changed: no counter movement and no rebuild at all.
    assert after.get("graph_node_invalidations", 0) == base.get(
        "graph_node_invalidations", 0)
    assert after["graph_rebuilds"] == base["graph_rebuilds"]


def test_invalidate_nodes_counts_only_known_ids():
    _, topo = make_topology(CHAIN)
    topo.hops(0, 1)
    topo.invalidate_nodes([0, 1, 99])
    assert counters(topo)["graph_node_invalidations"] == 2


def test_batched_net_zero_flips_collapse_to_a_refresh():
    """Crash + restart with no query in between refreshes once — and the
    delta pass notices the membership is back where it started, so the
    graph is not even patched."""
    _, topo = make_topology(CHAIN)
    assert topo.hops(0, LAST) == LAST
    base = counters(topo)
    topo.get(1).kill()
    topo.invalidate_nodes([1])
    topo.get(1).alive = True
    topo.invalidate_nodes([1])  # no query between the flips
    assert topo.hops(0, LAST) == LAST
    after = counters(topo)
    assert after["graph_rebuilds"] - base["graph_rebuilds"] == 1
    assert after.get("graph_delta_rebuilds", 0) == base.get(
        "graph_delta_rebuilds", 0)
    assert after["graph_full_rebuilds"] == base["graph_full_rebuilds"]


def test_invalidate_nodes_drops_stale_bfs_answers():
    _, topo = make_topology(CHAIN)
    assert topo.hops(0, LAST) == LAST  # memoized
    topo.get(2).kill()
    topo.invalidate_nodes([2])
    assert topo.hops(0, LAST) is None  # memo did not survive


# ---------------------------------------------------------------------------
# The same contracts at constant density (~28 neighbours at 150 m), where
# the grid has more than one shard and 1 % of the nodes are walkers
# ---------------------------------------------------------------------------
POPULATION = 600
WALKER_EVERY = 100


def make_population(seed=11, n=POPULATION, walker_every=WALKER_EVERY,
                    cls=Topology):
    side = (n / 4e-4) ** 0.5
    region = Region(side, side)
    layout = generator_from_seed(seed)
    sim = Simulator(seed=seed)
    topo = cls(sim, transmission_range=150.0, refresh_interval=0.5)
    for i in range(n):
        start = Point(layout.uniform(0, side), layout.uniform(0, side))
        topo.add_node(Node(i, Stationary(start) if i % walker_every else
                           RandomWaypoint(region, start, 20.0,
                                          generator_from_seed(seed + i))))
    return sim, topo, side


def central_batch(topo, side, count=16):
    """The ``count`` stationary nodes nearest the centre: one shard's
    worth."""
    centre = Point(side / 2, side / 2)
    return sorted(
        (node for node in topo.nodes() if node.mobility.speed() == 0.0),
        key=lambda node: (distance(node.mobility.position(0.0), centre),
                          node.node_id))[:count]


def counters_since(topo, base):
    return {name: value - base.get(name, 0)
            for name, value in counters(topo).items()
            if value != base.get(name, 0)}


def test_fault_churn_rides_the_node_scoped_delta_path():
    """A localized outage and its recovery each cost one delta rebuild
    sized by the batch, touching a sliver of the shard grid."""
    _, topo, side = make_population()
    batch = central_batch(topo, side)
    ids = [node.node_id for node in batch]
    edges = topo.edge_count()
    assert topo.shard_count > 1
    for alive in (False, True):
        base = counters(topo)
        for node in batch:
            node.alive = alive
        topo.invalidate_nodes(ids)
        topo.neighbors(0)
        delta = counters_since(topo, base)
        assert delta["graph_node_invalidations"] == len(batch)
        assert delta["graph_delta_rebuilds"] == 1
        assert "graph_full_rebuilds" not in delta
        assert delta["graph_delta_dirty_nodes"] == len(batch)
        assert delta["graph_shards_touched"] < topo.shard_count
    assert topo.edge_count() == edges  # everyone revived in place


def test_mobile_fraction_keeps_delta_path_active():
    """Static skip: a refresh recomputes the walkers' positions, not the
    population's, and patches the graph instead of rebuilding it."""
    sim, topo, _ = make_population()
    topo.neighbors(0)  # the initial full build
    base = counters(topo)
    refreshes = 5
    for _ in range(refreshes):
        sim.run(until=sim.now + 0.5 * 1.01)
        topo.neighbors(0)
    delta = counters_since(topo, base)
    assert delta["graph_delta_rebuilds"] == refreshes
    assert "graph_full_rebuilds" not in delta
    walkers = POPULATION // WALKER_EVERY
    assert delta["graph_positions_recomputed"] == walkers * refreshes
    assert delta["graph_shards_touched"] < topo.shard_count * refreshes
