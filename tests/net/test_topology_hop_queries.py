"""Target-terminated hop queries: ``hops`` and ``nearest``.

Both answer a point question without building the asker's distance
map, so the invariant under test is agreement with the map path
(``reachable``) and with the networkx oracle — for every pair, every
bound, either argument order, every memo state the search may meet
(cold, one endpoint memoized, an entry too shallow to answer), through
every way the graph changes, and with the component labels off and on.

Head scans (``nearest``, ``within_hops`` / ``HelloService.heads_within``)
also take a candidate set; it may only change how many nodes the
predicate is put to, never the answer.
"""

import random

import pytest

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.hello import HelloService
from repro.net.node import Node
from repro.net.topology import Topology
from repro.perf import counters as cnt
from repro.sim.engine import Simulator

pytest.importorskip("networkx")

from tests.net.oracle import OracleTopology

BOUNDS = (1, 2, 3, 5, None)
STRANGER = 999          # an id neither engine ever heard of
NEWCOMER = 100          # an id some tests add later


def build_pair(seed, n=36, area=800.0, tr=150.0, dead=4):
    """The same population in the native engine and the oracle: a
    sparse random field (a few components of its own), one isolated
    node and one two-node component parked outside it, and ``dead``
    nodes that are registered but not alive (so not in the graph)."""
    rng = random.Random(seed)
    points = [Point(rng.uniform(0, area), rng.uniform(0, area))
              for _ in range(n)]
    points += [Point(area + 500.0, area + 500.0),
               Point(-500.0, -500.0), Point(-400.0, -500.0)]
    down = set(rng.sample(range(n), dead))
    engines = []
    for cls in (Topology, OracleTopology):
        engine = cls(Simulator(seed=seed), tr)
        for i, point in enumerate(points):
            node = Node(i, Stationary(point))
            node.alive = i not in down
            engine.add_node(node)
        engines.append(engine)
    return engines


def ids_of(topo):
    return sorted(topo.store.slot_of) + [STRANGER]


def truth_table(oracle, ids):
    """``{(a, b): hops or None}`` from the oracle's full BFS."""
    table = {}
    for a in ids:
        lengths = oracle.reachable(a)
        for b in ids:
            table[a, b] = 0 if a == b else lengths.get(b)
    return table


def expected(table, a, b, k):
    d = table[a, b]
    return None if d is None or (k is not None and d > k) else d


def activate(topo, labels):
    if labels:
        topo.component_count()
    assert topo._labels_active == labels


def assert_all_pairs(topo, oracle):
    """Cold-memo sweep: every pair, every bound, both orders."""
    ids = ids_of(topo)
    table = truth_table(oracle, ids)
    topo._bfs_cache.clear()
    for a in ids:
        for b in ids:
            for k in BOUNDS:
                got = topo.hops(a, b, max_hops=k)
                assert got == expected(table, a, b, k), (a, b, k)
                assert got == topo.hops(b, a, max_hops=k), (a, b, k)
    assert topo._bfs_cache == {}, "a pair search stores nothing"
    return table


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("seed", [1, 5, 8])
def test_hops_cold_matches_oracle_and_map_path(seed, labels):
    topo, oracle = build_pair(seed)
    activate(topo, labels)
    def conn_counters():
        return {name: value
                for name, value in topo.perf.counters_snapshot().items()
                if name.startswith("conn_")}

    before = conn_counters()
    table = assert_all_pairs(topo, oracle)
    # Hop queries never pose a label question themselves.
    assert topo._labels_active == labels
    assert conn_counters() == before
    # The map path, asked last so the sweep above ran cold.
    for a in ids_of(topo):
        for k in BOUNDS:
            lengths = topo.reachable(a, max_hops=k)
            for b in ids_of(topo):
                if a != b:
                    assert lengths.get(b) == expected(table, a, b, k)


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("memoized", ["a", "b"])
def test_hops_reads_either_endpoints_memo(memoized, labels):
    topo, oracle = build_pair(seed=2)
    activate(topo, labels)
    ids = ids_of(topo)
    table = truth_table(oracle, ids)
    for anchor in ids:
        topo._bfs_cache.clear()
        topo.reachable(anchor, max_hops=None)
        calls = topo.perf.get(cnt.BFS_CALLS)
        hits = topo.perf.get(cnt.BFS_CACHE_HITS)
        asked = 0
        for other in ids:
            if other == anchor:
                continue
            a, b = (anchor, other) if memoized == "a" else (other, anchor)
            for k in BOUNDS:
                assert topo.hops(a, b, max_hops=k) == expected(table, a, b, k)
                asked += 1
        assert topo.perf.get(cnt.BFS_CALLS) == calls
        assert topo.perf.get(cnt.BFS_CACHE_HITS) == hits + asked


@pytest.mark.parametrize("labels", [False, True])
def test_hops_searches_past_a_too_shallow_entry(labels):
    topo, oracle = build_pair(seed=8)
    activate(topo, labels)
    ids = ids_of(topo)
    table = truth_table(oracle, ids)
    searched = 0
    for a in ids:
        for b in ids:
            if a == b:
                continue
            topo._bfs_cache.clear()
            topo.within_hops(a, 2)
            _depth, complete, _lengths = topo._bfs_cache[a]
            calls = topo.perf.get(cnt.BFS_CALLS)
            for k in (1, 2):    # deep enough: answered from the entry
                assert topo.hops(a, b, max_hops=k) == expected(table, a, b, k)
                assert topo.hops(b, a, max_hops=k) == expected(table, a, b, k)
            assert topo.perf.get(cnt.BFS_CALLS) == calls
            for k in (3, 5, None):
                assert topo.hops(a, b, max_hops=k) == expected(table, a, b, k)
            if table[a, b] == 3:
                # A depth-2 map that stopped short cannot know a node
                # three hops out: the query must have searched.
                assert not complete
                assert topo.perf.get(cnt.BFS_CALLS) > calls
                searched += 1
    assert searched > 0


@pytest.mark.parametrize("labels", [False, True])
def test_hops_tracks_every_kind_of_graph_change(labels):
    topo, oracle = build_pair(seed=6)
    activate(topo, labels)
    assert_all_pairs(topo, oracle)
    # The parked pair (west, east) grows a third node, NEWCOMER, east
    # of ``east``: every step below flips hops(west, NEWCOMER), so an
    # answer surviving from before the step fails the test.
    west, east = max(topo.store.slot_of) - 1, max(topo.store.slot_of)
    field = random.Random(6).sample(sorted(max(topo.components(), key=len)), 6)

    def change(mutate, want):
        # Ask first, map included: a stale engine would repeat these.
        topo.hops(west, NEWCOMER, max_hops=None)
        topo.reachable(west, max_hops=None)
        for engine in (topo, oracle):
            mutate(engine)
        oracle.invalidate()
        assert topo.hops(west, NEWCOMER, max_hops=None) == want
        assert topo.hops(NEWCOMER, west, max_hops=3) == want
        assert_all_pairs(topo, oracle)

    def flip(alive):
        def mutate(engine):
            for nid in [east] + field:
                engine.get(nid).alive = alive
            if engine is topo:
                topo.invalidate_nodes([east] + field)
        return mutate

    change(lambda engine: engine.add_node(
        Node(NEWCOMER, Stationary(Point(-300.0, -500.0)))), 2)
    change(flip(False), None)
    change(flip(True), 2)
    change(lambda engine: engine.remove_node(engine.get(east)), None)
    assert topo._labels_active == labels


def test_live_labels_refute_cross_component_pairs_without_a_search():
    topo, _oracle = build_pair(seed=7)
    small, large = sorted(topo.components(), key=len)[-2:]
    a, b = min(small), min(large)
    assert topo.hops(a, b, max_hops=None) is None
    assert topo.perf.get(cnt.BFS_CALLS) == 1    # walked the smaller side
    topo.component_count()                      # labels go live
    hits = topo.perf.get(cnt.CONN_LABEL_HITS)
    assert topo.hops(a, b, max_hops=None) is None
    assert topo.hops(b, a, max_hops=3) is None
    assert topo.perf.get(cnt.BFS_CALLS) == 1
    assert topo.perf.get(cnt.CONN_LABEL_HITS) == hits


# --- nearest ----------------------------------------------------------


def brute_nearest(topo, source, accept, k):
    """What ``HelloService.nearest_head`` computed before ``nearest``."""
    candidates = [(d, other)
                  for other, d in topo.reachable(source, max_hops=k).items()
                  if d > 0 and accept(other)]
    if not candidates:
        return None
    d, other = min(candidates)
    return other, d


PREDICATES = {
    "sevens": lambda nid: nid % 7 == 0,
    "odd": lambda nid: nid % 2 == 1,
    "anyone": lambda nid: True,
    "nobody": lambda nid: False,
}


@pytest.mark.parametrize("predicate", sorted(PREDICATES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nearest_matches_brute_force_cold_and_memoized(seed, predicate):
    topo, _oracle = build_pair(seed)
    accept = PREDICATES[predicate]
    for source in ids_of(topo):
        for k in BOUNDS:
            topo._bfs_cache.clear()
            cold = topo.nearest(source, accept, max_hops=k)
            assert topo._bfs_cache == {}
            want = brute_nearest(topo, source, accept, k)   # memoizes
            assert cold == want, (source, k)
            calls = topo.perf.get(cnt.BFS_CALLS)
            assert topo.nearest(source, accept, max_hops=k) == want
            assert topo.perf.get(cnt.BFS_CALLS) == calls
            if predicate == "nobody":
                assert want is None


def test_nearest_never_offers_the_source_and_ignores_absent_sources():
    topo, _oracle = build_pair(seed=2)
    dead = next(nid for nid in topo.store.slot_of
                if not topo.get(nid).alive)
    for source in (dead, STRANGER):
        assert topo.nearest(source, lambda nid: True, max_hops=None) is None
    seen = []
    source = max(topo.components(), key=len).pop()
    topo.nearest(source, lambda nid: seen.append(nid) or False, max_hops=None)
    assert seen and source not in seen


def test_nearest_stops_at_the_first_level_with_a_match():
    sim = Simulator()
    topo = Topology(sim, transmission_range=150.0)
    for i in range(40):
        topo.add_node(Node(i, Stationary(Point(i * 100.0, 0.0))))
    # Ties at the winning level go to the lowest id: 17 and 23 are both
    # three hops from 20.
    assert topo.nearest(20, lambda nid: nid in (17, 23, 0), None) == (17, 3)
    assert topo.perf.get(cnt.BFS_NODES_EXPANDED) <= 5
    assert topo.nearest(20, lambda nid: nid in (17, 23), max_hops=2) is None
    assert topo.perf.get(cnt.BFS_UNBOUNDED) == 0


# --- candidate sets ---------------------------------------------------


def heads_by_predicate(topo, source, accept, k):
    """``heads_within`` as the predicate alone decides it."""
    return sorted(((other, d) for other, d in topo.within_hops(source, k)
                   if accept(other)), key=lambda pair: (pair[1], pair[0]))


def candidate_sets(topo, accept):
    """Supersets of what ``accept`` approves: exactly that, that plus
    padding (a stranger, the dead, every third id), and everyone."""
    ids = ids_of(topo)
    approved = {nid for nid in ids if accept(nid)}
    dead = {nid for nid in topo.store.slot_of if not topo.get(nid).alive}
    assert dead
    return [approved, approved | dead | {STRANGER} | set(ids[::3]), set(ids)]


@pytest.mark.parametrize("predicate", sorted(PREDICATES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_candidate_set_changes_no_answer(seed, predicate):
    topo, _oracle = build_pair(seed)
    hello = HelloService(topo)
    accept = PREDICATES[predicate]
    for among in candidate_sets(topo, accept):
        asked = []

        def probed(nid):
            asked.append(nid)
            return accept(nid)

        for source in ids_of(topo):
            for k in BOUNDS:
                topo._bfs_cache.clear()
                cold = topo.nearest(source, probed, k, among)
                assert topo._bfs_cache == {}
                want = brute_nearest(topo, source, accept, k)   # memoizes
                assert cold == want, (source, k)
                assert topo.nearest(source, probed, k, among) == want
                assert hello.nearest_head(source, probed, k, among) == want
            for k in (1, 2, 3, 5):
                want = heads_by_predicate(topo, source, accept, k)
                assert hello.heads_within(source, k, probed, among) == want
                assert sorted(topo.within_hops(source, k, among)) == sorted(
                    pair for pair in topo.within_hops(source, k)
                    if pair[0] in among)
        # The predicate saw candidates only.
        assert set(asked) <= among


def test_a_dead_candidate_is_left_to_the_predicate():
    # Killed with no invalidation: still in the graph, still in the
    # candidate set (it only narrows); the predicate's live liveness
    # check is what rejects it, exactly as without a candidate set.
    topo, _oracle = build_pair(seed=3)
    hello = HelloService(topo)
    source = min(max(topo.components(), key=len))
    ring = topo.within_hops(source, 3)
    victim = min(ring, key=lambda pair: (pair[1], pair[0]))[0]
    among = {other for other, _d in ring[::2]} | {victim, STRANGER}

    def alive_candidate(nid):
        return nid in among and topo.get(nid).alive

    before = hello.heads_within(source, 3, alive_candidate, among)
    assert before[0][0] == victim
    assert topo.nearest(source, alive_candidate, 3, among)[0] == victim
    topo.get(victim).alive = False
    after = hello.heads_within(source, 3, alive_candidate, among)
    assert after == before[1:]
    assert after == hello.heads_within(source, 3, alive_candidate)
    for k in BOUNDS:
        for cache in ("memoized", "cold"):
            if cache == "cold":
                topo._bfs_cache.clear()
            found = topo.nearest(source, alive_candidate, k, among)
            assert found == topo.nearest(source, alive_candidate, k)
            assert found is None or found[0] != victim


# --- what a query costs -----------------------------------------------


def lattice(side, spacing=100.0, tr=150.0):
    """A ``side`` x ``side`` king's-move lattice (diagonals in range)."""
    topo = Topology(Simulator(), transmission_range=tr)
    topo.add_nodes(Node(r * side + c, Stationary(Point(c * spacing,
                                                       r * spacing)))
                   for r in range(side) for c in range(side))
    return topo


def test_routes_from_a_memoized_flood_source_never_search():
    # The ledger's engine_churn unicast step: destinations drawn from a
    # flood source's own (memoized) map.
    topo = lattice(20)
    rng = random.Random(1)
    source = 0
    topo.reachable(source, max_hops=None)
    calls = topo.perf.get(cnt.BFS_CALLS)
    for _ in range(256):
        target = rng.randrange(1, 400)
        assert topo.hops(source, target, max_hops=None) == max(
            target // 20, target % 20)
    assert topo.perf.get(cnt.BFS_CALLS) == calls


def test_cold_far_apart_route_costs_two_balls_not_the_component():
    side = 25
    topo = lattice(side)
    n = side * side
    a, b = 12 * side + 6, 12 * side + 18
    unbounded = topo.perf.get(cnt.BFS_UNBOUNDED)
    assert topo.hops(a, b, max_hops=None) == 12
    pair = topo.perf.get(cnt.BFS_NODES_EXPANDED)
    assert topo.perf.get(cnt.BFS_CALLS) == 1
    assert 0 < pair < n / 2
    assert topo.perf.get(cnt.BFS_UNBOUNDED) == unbounded
    # The map path pays for (nearly) the whole component, and is the
    # one kind of search that counts as a flood.
    topo.reachable(a, max_hops=None)
    assert topo.perf.get(cnt.BFS_NODES_EXPANDED) - pair > n / 2
    assert topo.perf.get(cnt.BFS_UNBOUNDED) == unbounded + 1
    assert topo.perf.timings_snapshot()[cnt.TIMER_TOPOLOGY_BFS]["calls"] == 2
