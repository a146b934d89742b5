"""The incremental connectivity labels: bit-identity with components().

The label layer is maintained by the rebuild machinery (full rebuilds
label everything, delta rebuilds relabel only dirty regions, splits are
resolved by the boundary race) — so the invariant under test is that
the queryable surface (``component_id`` / ``same_component`` /
``component_size`` / ``component_members``, and the batched
``component_indices``) always agrees with a from-scratch
``components()`` BFS, through every rebuild path: churn, mobility,
batch adds, forced full relabels, and store compaction.
"""

import random

from repro.geometry import Point
from repro.geometry.region import Region
from repro.mobility.base import Stationary
from repro.mobility.waypoint import RandomWaypoint
from repro.net.node import Node
from repro.net.topology import Topology
from repro.sim.engine import Simulator


def build(n, area, tr, seed, speed=0.0):
    sim = Simulator(seed=seed)
    region = Region(area, area)
    rng = random.Random(seed)
    topo = Topology(sim, tr)
    nodes = []
    for i in range(n):
        start = region.random_point(rng)
        mobility = (RandomWaypoint(region, start, speed,
                                   random.Random(seed * 1000 + i))
                    if speed else Stationary(start))
        node = Node(node_id=i, mobility=mobility)
        nodes.append(node)
        topo.add_node(node)
    return sim, topo, nodes


def assert_labels_match_oracle(topo):
    """Every label query must agree with the from-scratch BFS."""
    oracle = topo.components()
    assert topo.component_count() == len(oracle)
    seen_canonical = set()
    for members in oracle:
        ids = sorted(members)
        canonical = topo.component_id(ids[0])
        assert canonical in members
        seen_canonical.add(canonical)
        for nid in ids:
            assert topo.component_id(nid) == canonical
            assert topo.component_size(nid) == len(members)
            assert set(topo.component_members(nid)) == members
            assert topo.same_component(ids[0], nid)
    # Distinct components never share a canonical id.
    assert len(seen_canonical) == len(oracle)
    # Cross-component pairs are not conflated.
    if len(oracle) >= 2:
        a = min(oracle[0])
        b = min(oracle[1])
        assert not topo.same_component(a, b)
    assert_batched_query_is_pointwise(topo, oracle)


UNKNOWN = 999   # an id no topology here ever holds


def assert_batched_query_is_pointwise(topo, oracle):
    """One ``component_indices`` call over everything registered (the
    dead included) and a stranger groups ids exactly as the pointwise
    queries do."""
    ids = sorted(topo.store.slot_of) + [UNKNOWN]
    indices = topo.component_indices(ids)
    assert len(indices) == len(ids)
    groups = {}
    for nid, index in zip(ids, indices):
        assert (index is None) == (topo.component_id(nid) is None), nid
        if index is not None:
            groups.setdefault(index, set()).add(nid)
    assert sorted(map(sorted, groups.values())) == sorted(map(sorted, oracle))
    anchor, anchor_index = ids[0], indices[0]
    for nid, index in zip(ids, indices):
        assert topo.same_component(anchor, nid) == (
            index is not None and index == anchor_index), nid
    # Any iterable, any order, repeats allowed.
    assert topo.component_indices(reversed(ids + ids)) == (indices * 2)[::-1]


def test_labels_match_oracle_after_initial_build():
    for seed, n, area, tr in [(1, 1, 300, 150), (2, 40, 600, 120),
                              (3, 80, 1200, 150)]:
        _, topo, _ = build(n, area, tr, seed)
        assert_labels_match_oracle(topo)
    assert topo.perf.get("conn_full_relabels") >= 1


def test_labels_bit_identical_under_kill_revive_churn():
    """Random kills and revivals — including component splits resolved
    by the boundary race — must stay on the delta-relabel path and
    agree with the oracle at every step."""
    _, topo, nodes = build(60, 700, 130, seed=7)
    assert_labels_match_oracle(topo)  # activate the labels
    full_before = topo.perf.get("conn_full_relabels")
    rng = random.Random(99)
    for step in range(120):
        batch = rng.sample(nodes, rng.randint(1, 4))
        for node in batch:
            node.alive = not node.alive
        topo.invalidate_nodes(node.node_id for node in batch)
        assert_labels_match_oracle(topo)
    assert topo.perf.get("conn_full_relabels") == full_before
    assert topo.perf.get("conn_delta_relabels") > 0


def test_labels_follow_mobility_refreshes():
    sim, topo, _ = build(50, 500, 100, seed=5, speed=20.0)
    for t in (0.0, 0.9, 2.5, 7.0, 19.0):
        sim._now = t
        assert_labels_match_oracle(topo)


def test_blanket_invalidate_forces_full_relabel_and_still_matches():
    _, topo, nodes = build(40, 500, 120, seed=11)
    assert_labels_match_oracle(topo)
    full_before = topo.perf.get("conn_full_relabels")
    for node in nodes[:3]:
        node.alive = False
    topo.invalidate()  # blanket: no dirty set, the delta path cannot run
    assert_labels_match_oracle(topo)
    assert topo.perf.get("conn_full_relabels") > full_before


def test_wide_dirty_set_falls_back_to_full_relabel():
    """Past the dirty-fraction threshold a delta rebuild is a false
    economy; the fallback must still produce oracle-identical labels."""
    _, topo, nodes = build(40, 500, 120, seed=13)
    assert_labels_match_oracle(topo)
    for node in nodes[: len(nodes) // 2]:
        node.alive = False
    topo.invalidate_nodes(n.node_id for n in nodes[: len(nodes) // 2])
    assert_labels_match_oracle(topo)
    for node in nodes[: len(nodes) // 2]:
        node.alive = True
    topo.invalidate_nodes(n.node_id for n in nodes[: len(nodes) // 2])
    assert_labels_match_oracle(topo)


def test_labels_survive_store_compaction():
    """Evictions tombstone slots; store compaction renumbers them.  The
    labels are slot-indexed, so a layout bump must rebuild them — and
    the rebuilt labels must match the oracle."""
    _, topo, nodes = build(80, 900, 150, seed=17)
    assert_labels_match_oracle(topo)
    rng = random.Random(3)
    for node in rng.sample(nodes, 50):
        topo.remove_node(node)
    assert_labels_match_oracle(topo)


def test_membership_churn_with_departures_and_entrants():
    rng = random.Random(23)
    _, topo, nodes = build(50, 600, 140, seed=23)
    pool = {node.node_id: node for node in nodes}
    present = set(pool)
    spare = []
    assert_labels_match_oracle(topo)
    for step in range(60):
        roll = rng.random()
        if roll < 0.3 and spare:
            nid = spare.pop()
            present.add(nid)
            topo.add_node(pool[nid])
        elif roll < 0.6 and len(present) > 1:
            nid = rng.choice(sorted(present))
            present.discard(nid)
            spare.append(nid)
            topo.remove_node(pool[nid])
        else:
            nid = rng.choice(sorted(present))
            pool[nid].alive = not pool[nid].alive
            topo.invalidate_nodes([nid])
        assert_labels_match_oracle(topo)


def test_add_nodes_batch_equivalent_to_loop():
    sim_a = Simulator(seed=31)
    sim_b = Simulator(seed=31)
    rng = random.Random(31)
    points = [Point(rng.uniform(0, 800), rng.uniform(0, 800))
              for _ in range(70)]
    batch = Topology(sim_a, 150.0)
    loop = Topology(sim_b, 150.0)
    batch.add_nodes(Node(i, Stationary(p)) for i, p in enumerate(points))
    for i, p in enumerate(points):
        loop.add_node(Node(i, Stationary(p)))
    assert sorted(batch.edges()) == sorted(loop.edges())
    assert batch.components() == loop.components()
    for i in range(70):
        assert batch.component_id(i) == loop.component_id(i)
        assert batch.component_members(i) == loop.component_members(i)


def test_unknown_and_dead_nodes_answer_conservatively():
    _, topo, nodes = build(10, 400, 150, seed=41)
    assert topo.component_id(999) is None
    assert topo.component_size(999) == 0
    assert topo.component_members(999) == []
    assert not topo.same_component(0, 999)
    nodes[0].kill()
    topo.invalidate_nodes([0])
    assert topo.component_id(0) is None
    assert not topo.same_component(0, 1)


def test_batched_query_edge_cases_and_its_hit_rule():
    _, topo, nodes = build(10, 400, 150, seed=41)
    topo.component_count()      # labels live

    def hits_of(query):
        before = topo.perf.get("conn_label_hits")
        answer = topo.component_indices(query)
        return answer, topo.perf.get("conn_label_hits") - before

    # A batch is one question: one hit however many ids it carries,
    # none when no id of it is in the graph.
    answer, hits = hits_of(range(10))
    assert None not in answer and hits == 1
    assert hits_of([]) == ([], 0)
    assert hits_of([UNKNOWN, UNKNOWN]) == ([None, None], 0)
    assert hits_of([UNKNOWN, 3]) == ([None, answer[3]], 1)
    # Dead and refreshed out of the graph.
    nodes[0].kill()
    topo.invalidate_nodes([0])
    assert hits_of([0]) == ([None], 0)
    # Revived with no invalidation: alive, but not in the graph until
    # a refresh finds it — what component_id says of it too.
    nodes[0].alive = True
    assert hits_of([0]) == ([None], 0)
    assert topo.component_id(0) is None
    topo.invalidate_nodes([0])
    (index,), hits = hits_of([0])
    assert index is not None and hits == 1
    # A pending refresh is forced by the batch itself.
    nodes[1].kill()
    topo.invalidate_nodes([1])
    assert hits_of([1, 0]) == ([None, index], 1)


def test_relabel_counters_scale_with_dirty_region_not_population():
    """Cutting a small piece off a large component relabels the smaller
    side only (the race's smaller-half discipline)."""
    sim = Simulator()
    topo = Topology(sim, 60.0)
    # A 2x60 corridor: a chain of close pairs, cut near one end.
    nodes = []
    for i in range(60):
        for j in range(2):
            node = Node(i * 2 + j, Stationary(Point(i * 50.0, j * 30.0)))
            nodes.append(node)
            topo.add_node(node)
    assert topo.component_count() == 1
    slots_before = topo.perf.get("conn_slots_relabeled")
    # Kill column 5: the 10 nodes to its left split off.
    for node in nodes[10:12]:
        node.kill()
    topo.invalidate_nodes([10, 11])
    assert topo.component_count() == 2
    relabeled = topo.perf.get("conn_slots_relabeled") - slots_before
    assert 0 < relabeled <= 14  # the split piece (10) + the dirty pair
    assert_labels_match_oracle(topo)
