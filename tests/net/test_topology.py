"""Unit tests for the unit-disk topology and hop-count queries."""

import pytest

from repro.geometry import Point, Region, distance
from repro.mobility import RandomWaypoint
from repro.mobility.base import MobilityModel, Stationary
from repro.net import Node, Topology
from repro.sim import Simulator
from repro.sim.rng import generator_from_seed
from repro.sim.timers import PeriodicTimer
from tests.helpers import passes_over
from tests.net.structure import (eccentricity_from, edges, has_edge,
                                  same_partition)


def make_topology(positions, tr=150.0, seed=1):
    sim = Simulator(seed=seed)
    topo = Topology(sim, transmission_range=tr)
    for i, (x, y) in enumerate(positions):
        topo.add_node(Node(i, Stationary(Point(x, y))))
    return sim, topo


def test_edges_respect_range():
    _, topo = make_topology([(0, 0), (100, 0), (300, 0)])
    assert has_edge(topo, 0, 1)
    assert not has_edge(topo, 0, 2)
    assert not has_edge(topo, 1, 2)
    assert list(edges(topo)) == [(0, 1)]


def test_edge_at_exact_range():
    _, topo = make_topology([(0, 0), (150, 0)])
    assert has_edge(topo, 0, 1)


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
    assert eccentricity_from(topo, 0) == 2
    assert eccentricity_from(topo, 1) == 1


def test_components():
    _, topo = make_topology([(0, 0), (100, 0), (900, 900), (950, 900)])
    components = sorted(topo.components(), key=min)
    assert components == [{0, 1}, {2, 3}]


def test_same_partition():
    _, topo = make_topology([(0, 0), (100, 0), (900, 900)])
    assert same_partition(topo, [0, 1])
    assert not same_partition(topo, [0, 2])
    assert same_partition(topo, [0])


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

    class Runner(MobilityModel):
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
    assert list(edges(scoped)) == list(edges(blanket))
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
# The same contracts at constant density (~28 neighbours at 150 m), over
# a grid of many cells, with 1 % of the nodes walkers
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
    """The ``count`` stationary nodes nearest the centre: a few cells'
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
    sized by the batch, re-testing only the batch's slots."""
    _, topo, side = make_population()
    batch = central_batch(topo, side)
    ids = [node.node_id for node in batch]
    edge_count = topo.edge_count()
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
    assert topo.edge_count() == edge_count  # everyone revived in place


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
    assert delta["graph_delta_dirty_nodes"] <= walkers * refreshes


def test_current_version_is_passive_and_stale_when_a_query_would_refresh():
    from repro.net.topology import STALE
    sim, topo = make_topology([(0, 0), (100, 0)])
    assert topo.current_version() == STALE          # never built
    topo.neighbors(0)
    version = topo.graph_version
    assert topo.current_version() == version
    rebuilds = topo.perf.counters_snapshot()
    sim.run(until=topo.refresh_interval * 2)
    assert topo.current_version() == STALE          # the snapshot aged
    assert topo.perf.counters_snapshot() == rebuilds   # and nothing ran
    topo.neighbors(0)
    # A refresh that moved nothing keeps the version.
    assert topo.current_version() == version
    topo.get(1).kill()
    topo.invalidate_nodes([1])
    assert topo.current_version() == STALE
    topo.neighbors(0)
    assert topo.current_version() == version + 1


# ---------------------------------------------------------------------------
# The removal journal: which graph changes wake a parked location check
# ---------------------------------------------------------------------------
# The three tests below keep the names of the edge-removal stamp they
# replaced.
def revive(topo, node_id):
    topo.get(node_id).alive = True
    topo.invalidate_nodes([node_id])


def move(topo, node_id):
    topo.get(node_id).mobility = Stationary(Point(node_id * 100.0, 50.0))


#: (change, the node whose location check is parked, whether the change
#: may drop an edge on a path from it and so wakes the check).  Each
#: starts from a line of eight configured nodes 100 m apart, node 3
#: crashed and refreshed out of the graph, so 0-2 and 4-7 are two
#: components; one node is an eighth of them, so every change but the
#: blanket invalidate() rides the delta path.  The restart bridges the
#: two; 0's side keeps its label.
REMOVAL_TABLE = [
    ("arrival", lambda topo: topo.add_node(
        Node(8, Stationary(Point(800.0, 0.0)))), 6, False),
    ("restart", lambda topo: revive(topo, 3), 0, False),
    ("departure", lambda topo: topo.remove_node(topo.get(7)), 6, True),
    ("crash", lambda topo: (topo.get(5).kill(),
                            topo.invalidate_nodes([5])), 6, True),
    ("moved node", lambda topo: move(topo, 6), 7, True),
    ("blanket invalidate", lambda topo: topo.invalidate(), 0, True),
]


def split_line():
    """The table's starting line, labels on and the table patched."""
    from tests.net.test_context import add, make_ctx
    ctx = make_ctx()
    for node_id in range(8):
        add(ctx, node_id, configured=True, network_id=7,
            x=node_id * 100.0)
    ctx.topology.get(3).kill()
    ctx.topology.invalidate_nodes([3])
    ctx.component_entry(0)
    return ctx


def sim_run_past_refresh(ctx):
    ctx.sim.run(until=ctx.sim.now + ctx.topology.refresh_interval * 2)


def parked_location(ctx, node_id, anchor):
    """A timer parked as ``node_id``'s location check parks."""
    timer = PeriodicTimer(ctx.sim, 1.0, lambda: None)
    ctx.park_location(node_id, anchor, timer)
    return timer


@pytest.mark.parametrize("change, observer, removes", [
    pytest.param(change, observer, removes, id=name.replace(" ", "-"))
    for name, change, observer, removes in REMOVAL_TABLE])
def test_removal_stamp_moves_only_where_an_edge_may_drop(change, observer,
                                                         removes):
    ctx = split_line()
    topo = ctx.topology
    check = parked_location(ctx, observer, observer + 1)
    assert passes_over(check)
    version = topo.graph_version
    change(topo)
    # A move is seen when the snapshot ages; everything else dirties it.
    sim_run_past_refresh(ctx)
    assert not ctx.table_current()      # a query would refresh
    assert check._parked
    topo.component_count()
    assert topo.graph_version == version + 1
    assert passes_over(check) == (not removes)


@pytest.mark.parametrize("change, far", [
    ("departure", 1), ("crash", 1), ("moved node", 0),
])
def test_removal_stamp_ignores_removals_in_other_components(change, far):
    """A removal in 4-7 wakes its members' checks and leaves 0-2's: no
    path from 0-2 runs through 4-7."""
    run = {name: fn for name, fn, _observer, _removes in REMOVAL_TABLE}
    ctx = split_line()
    checks = {node_id: parked_location(ctx, node_id, 2)
              for node_id in (4, far)}
    run[change](ctx.topology)
    sim_run_past_refresh(ctx)
    ctx.topology.component_count()
    assert passes_over(checks[far])
    assert not passes_over(checks[4])


def test_removal_stamp_is_passive_and_stale_with_the_version():
    """The park gate reads False, and runs nothing, while the graph is
    due a refresh or its labels are not current; a refresh that moves
    nothing keeps a parked location check parked."""
    from tests.net.test_context import add, make_ctx
    ctx = make_ctx()
    for node_id in (0, 1):
        add(ctx, node_id, configured=True, x=node_id * 100.0)
    topo = ctx.topology
    assert not ctx.table_current()                # never built
    topo.neighbors(0)
    assert not ctx.table_current()                # no labels yet
    ctx.component_entry(0)
    check = parked_location(ctx, 0, 1)
    assert passes_over(check)
    counters = topo.perf.counters_snapshot()
    sim_run_past_refresh(ctx)
    assert not passes_over(check)                 # the snapshot aged
    assert topo.perf.counters_snapshot() == counters   # and nothing ran
    assert check._parked
    topo.component_count()
    assert passes_over(check)
