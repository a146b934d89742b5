"""The incremental connectivity labels: bit-identity with components().

The label layer is maintained by the rebuild machinery (full rebuilds
label everything, delta rebuilds relabel only dirty regions, a probe
around each hole proves no split and real splits are resolved by the
boundary race) — so the invariant under test is that
the queryable surface (``component_id`` / ``same_component`` /
``component_size`` / ``component_members``, and the batched
``component_indices``) always agrees with a from-scratch
``components()`` BFS, through every rebuild path: churn, mobility,
batch adds, forced full relabels, and store compaction.

The second half of the file is about the split check itself: what it
*reads* (``conn_split_slots_scanned``: the holes' surroundings, not
the component), and layouts built to fool a proof that looks at one
hole at a time.  There the labels' internal indices must also equal
those of :class:`WholeRaceTopology`, the check as it ran before the
per-hole probe.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Point
from repro.geometry.region import Region
from repro.mobility.base import Stationary
from repro.mobility.waypoint import RandomWaypoint
from repro.net.node import Node
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from tests.net.test_topology import (central_batch, counters, counters_since,
                                     make_population)


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


# ---------------------------------------------------------------------------
# The split check: what it reads, and layouts built to fool it
# ---------------------------------------------------------------------------
class WholeRaceTopology(Topology):
    """The reference: step 2 of a delta relabel as it ran before the
    per-hole probe.  Nothing is proved locally, so every component that
    lost slots races its whole boundary as one seed set."""

    def _locally_intact(self, idx, clusters):
        return False, 0


def place(points, tr, cls=Topology):
    sim = Simulator(seed=1)
    topo = cls(sim, tr)
    nodes = [Node(i, Stationary(Point(x, y))) for i, (x, y) in enumerate(points)]
    topo.add_nodes(nodes)
    topo.component_count()      # labels live from the start
    return sim, topo, nodes


def scanned_by(topo, refresh):
    """Slots the split check read during ``refresh()``'s one delta
    relabel, and that rebuild's dirty-node count."""
    base = counters(topo)
    refresh()
    topo.component_count()
    grew = counters_since(topo, base)
    assert grew["conn_delta_relabels"] == 1 and "conn_full_relabels" not in grew
    return (grew.get("conn_split_slots_scanned", 0),
            grew["graph_delta_dirty_nodes"])


def refresh_together(points, tr, change, dirty):
    """Run ``change(topo, nodes)`` and the one delta refresh it causes
    (``dirty`` nodes) under the probe and under the reference: labels
    equal to the oracle, internal indices and write count equal to the
    reference's.  Returns the probe's topology and what its split
    check read."""
    worlds = []
    for cls in (Topology, WholeRaceTopology):
        sim, topo, nodes = place(points, tr, cls)

        def refresh():
            change(topo, nodes)
            sim.run(until=sim.now + 0.5 * 1.01)

        assert scanned_by(topo, refresh)[1] == dirty
        assert_labels_match_oracle(topo)
        worlds.append(topo)
    topo, reference = worlds
    assert_same_internals(topo, reference)
    return topo, topo.perf.get("conn_split_slots_scanned")


def kill_together(points, tr, victims):
    """:func:`refresh_together` for one ``invalidate_nodes`` batch."""
    def change(topo, nodes):
        for victim in victims:
            nodes[victim].kill()
        topo.invalidate_nodes(victims)

    return refresh_together(points, tr, change, len(victims))


def assert_same_internals(topo, reference):
    assert topo._comp_of == reference._comp_of
    assert topo._comp_members == reference._comp_members
    assert topo._comp_next == reference._comp_next
    assert (topo.perf.get("conn_slots_relabeled")
            == reference.perf.get("conn_slots_relabeled"))


def assert_labels_match_oracle_cheaply(topo):
    """The oracle comparison at populations where the per-node queries
    of :func:`assert_labels_match_oracle` would dominate the test."""
    oracle = topo.components()
    assert topo.component_count() == len(oracle)
    for members in oracle:
        assert set(topo.component_members(min(members))) == members


def test_split_check_reads_the_holes_not_the_component():
    """The no-split proof of a delta relabel is sized by what moved or
    died: about a dozen slots read per detached slot, whatever the
    population (the ledger's density, 1 % walkers)."""
    n = 3000
    sim, topo, side = make_population(n=n)
    giant = topo.component_size(0)
    assert giant > 0.99 * n

    def assert_local(scanned, dirty):
        assert 0 < scanned <= 25 * dirty
        assert scanned < giant // 4

    for _ in range(5):
        scanned, dirty = scanned_by(
            topo, lambda: sim.run(until=sim.now + 0.5 * 1.01))
        assert dirty >= 0.8 * n // 100      # the walkers, bar a pause
        assert_local(scanned, dirty)
    # The kill/revive batch of test_topology.py's delta contract.
    batch = central_batch(topo, side)
    ids = [node.node_id for node in batch]

    def flip(alive):
        for node in batch:
            node.alive = alive
        topo.invalidate_nodes(ids)

    assert_local(*scanned_by(topo, lambda: flip(False)))
    # Nothing detached, nothing to prove.
    assert scanned_by(topo, lambda: flip(True)) == (0, len(batch))
    assert topo.component_size(0) == giant
    assert_labels_match_oracle_cheaply(topo)


def test_whole_boundary_race_floods_where_the_probe_does_not():
    """What the bounds above are bounds *on*.  Ten walkers scattered
    over 3,000 nodes: the reference, counted the same way, reads about
    half the component before its searches have all met, to prove what
    the probe proves from a dozen slots around each walker.  (At 1 %
    walkers the reference's seeds are closer together and it reads
    less; what it pays for then is a rotation of thousands of seeds.)"""
    scans = []
    for cls in (Topology, WholeRaceTopology):
        sim, topo, _ = make_population(n=3000, walker_every=300, cls=cls)
        giant = topo.component_size(0)
        scanned, dirty = scanned_by(
            topo, lambda: sim.run(until=sim.now + 0.5 * 1.01))
        assert dirty == 3000 // 300 - 1     # one walker pausing
        assert topo.component_size(0) == giant == 3000
        scans.append(scanned)
    probe, reference = scans
    assert probe <= 25 * dirty < giant // 4 < reference


def chain(sizes, spacing=50.0):
    """Pieces of ``sizes`` nodes on a line, one bridge node between
    consecutive pieces: ``(points, bridge ids)``; ids run left to
    right, and only consecutive nodes are in range at ``tr=60``."""
    bridges = [sum(sizes[:piece]) + piece - 1
               for piece in range(1, len(sizes))]
    points = [(i * spacing, 0.0)
              for i in range(sum(sizes) + len(bridges))]
    return points, bridges


@pytest.mark.parametrize("sizes", [(6, 2, 5), (2, 7, 3), (4, 1, 4),
                                   (3, 3, 3, 3)])
def test_every_bridge_of_a_chain_cut_in_one_batch(sizes):
    """P - Q - P' with both bridges killed at once.  Each bridge is its
    own hole, and a verdict applied hole by hole goes wrong here: the
    first hole's race can hand Q a new label and leave the old one to
    "the rest", after which the second hole has one seed under each
    label, races nothing, and P and P' — not connected — share a label.
    Only the whole boundary has a seed in every piece."""
    points, bridges = chain(sizes)
    topo, _ = kill_together(points, 60.0, bridges)
    assert topo.component_count() == len(sizes)
    assert not topo.same_component(0, len(points) - 1)


def test_bridge_that_steps_aside_is_step_threes_to_reconnect():
    """The bridge of P - x - Q moves 20 m and still reaches both ends.
    When the split check runs, x's new edges are already in the
    adjacency but x has no label: stepping on it would "prove" P and Q
    connected, which among the survivors they are not.  The partition
    would come out the same — step 3 merges through x — but not the
    indices or the write count, which the reference gets by splitting
    and re-merging."""
    points, (bridge,) = chain((4, 4))

    def change(topo, nodes):
        # A swapped model is re-read at the next refresh.
        nodes[bridge].mobility = Stationary(Point(bridge * 50.0, 20.0))

    base = place(points, 60.0)[1].perf.get("conn_slots_relabeled")
    topo, _ = refresh_together(points, 60.0, change, dirty=1)
    assert topo.component_count() == 1
    assert topo.neighbors(bridge) == [bridge - 1, bridge + 1]
    # One side split off (4), x labelled (1), the side merged back (4).
    assert topo.perf.get("conn_slots_relabeled") - base == 9


def test_two_adjacent_bridges_are_one_hole():
    """a - b is the only link between two sides, and each of the two
    keeps its own surviving neighbours connected (a's are l1 - l2, b's
    are r1 - r2): a proof per detached slot would pass both and miss
    the split.  The theorem needs the joint boundary of the cluster."""
    points = [(-100, 20), (-50, 20), (0, 0), (0, 40),       # .. l1, l2
              (50, 20), (100, 20),                          # a, b
              (150, 0), (150, 40), (200, 20), (250, 20)]    # r1, r2 ..
    _, intact, _ = place(points, 60.0)
    assert intact.neighbors(4) == [2, 3, 5] and intact.neighbors(5) == [4, 6, 7]
    assert intact.has_edge(2, 3) and intact.has_edge(6, 7)
    topo, _ = kill_together(points, 60.0, [4, 5])
    assert topo.component_count() == 2
    assert topo.component_members(0) == [0, 1, 2, 3]
    assert topo.component_members(9) == [6, 7, 8, 9]


def test_ring_stays_whole_the_long_way_round():
    """One node of a ring dies: its two neighbours are still connected,
    by the rest of the ring and nothing shorter.  The probe leaves one
    of them open and the race has to walk until the two searches meet —
    no false split, and the read counter shows the walk."""
    n = 40
    radius = 50.0 / (2 * math.sin(math.pi / n))    # 50 m between neighbours
    points = [(radius * math.cos(2 * math.pi * i / n),
               radius * math.sin(2 * math.pi * i / n)) for i in range(n)]
    topo, scanned = kill_together(points, 60.0, [7])
    assert topo.component_count() == 1
    assert topo.component_size(6) == n - 1
    assert n // 2 < scanned <= n


@pytest.mark.parametrize("tail_first", [False, True])
def test_harmless_hole_and_real_cut_in_one_batch(tail_first):
    """An interior node of a lattice (a hole whose rim stays connected)
    and a node of the tail hanging off it (a real cut) die together.
    Whichever cluster is looked at first, the hole must not vouch for
    the tail."""
    lattice = [(50.0 * i, 50.0 * j) for i in range(6) for j in range(6)]
    tail = [(300.0 + 50.0 * k, 0.0) for k in range(4)]
    points = tail + lattice if tail_first else lattice + tail
    hole = points.index((100.0, 100.0))
    cut = points.index((350.0, 0.0))
    topo, scanned = kill_together(points, 75.0, [hole, cut])
    assert topo.component_count() == 2
    assert topo.component_size(points.index((0.0, 0.0))) == 36 - 1 + 1
    assert topo.component_size(points.index((450.0, 0.0))) == 2
    assert scanned < len(points)


# A paper-scale graph thin enough that it is mostly bridges: 50 nodes
# on 1 km2 at 150 m have about 3.5 neighbours each, so kills and moves
# split components all the time and the probe is usually refuted.
SPARSE_N, SPARSE_SIDE, SPARSE_RANGE = 50, 1000.0, 150.0

sparse_coordinate = st.floats(min_value=0, max_value=SPARSE_SIDE,
                              allow_nan=False)
sparse_ops = st.tuples(
    st.sampled_from(["kill", "revive", "move", "add", "evict"]),
    st.integers(min_value=0, max_value=10 ** 6),
    st.tuples(sparse_coordinate, sparse_coordinate))


class SparseWorld:
    """One topology and its own nodes; :meth:`apply` is a function of
    the op alone, so two worlds fed one sequence stay in step."""

    def __init__(self, cls, seed):
        self.sim = Simulator(seed=1)
        self.topo = cls(self.sim, SPARSE_RANGE, refresh_interval=0.5)
        self.nodes = {}
        layout = random.Random(seed)
        for _ in range(SPARSE_N):
            self.add((layout.uniform(0, SPARSE_SIDE),
                      layout.uniform(0, SPARSE_SIDE)))
        self.topo.component_count()

    def add(self, point):
        node = Node(len(self.nodes), Stationary(Point(*point)))
        self.nodes[node.node_id] = node
        self.topo.add_node(node)

    def apply(self, kind, pick, point):
        if kind == "add":
            return self.add(point)
        present = [self.nodes[nid] for nid in sorted(self.topo.store.slot_of)]
        wanted = {"kill": True, "revive": False}.get(kind)
        if wanted is not None:
            present = [node for node in present if node.alive is wanted]
        if not present:
            return
        node = present[pick % len(present)]
        if kind == "evict":
            self.topo.remove_node(node)
        elif kind == "move":
            # A swapped model is re-read at the next refresh.
            node.mobility = Stationary(Point(*point))
        else:
            node.alive = not wanted
            self.topo.invalidate_nodes([node.node_id])

    def refresh(self):
        self.sim.run(until=self.sim.now + 0.5 * 1.01)
        self.topo.component_count()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.lists(st.lists(sparse_ops, min_size=1, max_size=5),
                min_size=1, max_size=12))
def test_sparse_graph_churn_matches_oracle_and_reference(seed, batches):
    world = SparseWorld(Topology, seed)
    reference = SparseWorld(WholeRaceTopology, seed)
    for batch in batches:
        for op in batch:
            world.apply(*op)
            reference.apply(*op)
        world.refresh()
        reference.refresh()
        assert_labels_match_oracle(world.topo)
        assert_same_internals(world.topo, reference.topo)
