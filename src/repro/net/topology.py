"""Unit-disk connectivity and hop-count queries (spatial-grid engine).

The connectivity graph over alive nodes is maintained natively — no
graph library on the hot path — and, since the scale rework, on
*struct-of-arrays* state so populations of 10k+ nodes stay tractable:

* **SoA node store.**  Per-node state (id, position, alive flag,
  mobility handle) lives in parallel arrays inside
  :class:`~repro.net.store.NodeStore`, indexed by *slot*.  Slots are
  assigned in insertion order and compaction preserves relative order,
  so slot comparison IS rank comparison — adjacency lists are kept in
  the population's insertion order by sorting plain ints.  Position
  refreshes skip nodes whose mobility is provably static, so a
  mostly-stationary network pays array reads, not ``position()``
  calls, per refresh (``graph_positions_recomputed`` counter).

* **Spatial cell index.**  Nodes are bucketed into square cells whose
  side equals the transmission range (every potential neighbor lies in
  the 3x3 cell block; :class:`~repro.net.grid.CellGrid`).  Edge
  construction is ``O(n + edges)``, an incremental rebuild re-buckets
  and re-tests only the slots that moved (``graph_delta_dirty_nodes``),
  and empty cells drop their buckets instead of leaking across long
  mobility runs.

* **Hop queries cost their answer.**  There are three kinds of search
  over the slot-indexed adjacency, all on one reusable epoch-stamped
  visited array (no per-query set allocations) and all timed and
  counted together (``bfs_calls`` / ``bfs_nodes_expanded``):

  - *Map builds* (:meth:`reachable`, :meth:`within_hops`,
    :meth:`warm_bfs`) run a level-list BFS that yields nodes in exactly
    the order ``networkx.single_source_shortest_path_length``
    produced.  Callers that only need a ``k``-hop neighborhood (QDSet
    discovery: 3, HELLO scans: 2, reclamation floods:
    ``RECLAMATION_RADIUS``) pass ``max_hops`` and the search stops at
    that level.  Maps are
    memoized per source until the graph *changes* (a refresh that
    finds nothing moved keeps the memo — the graph is identical, so
    the cached answers are too); a deeper query upgrades the cached
    entry in place, and :meth:`warm_bfs` batches many sources through
    one graph-currency check.  A map without a cutoff is a flood
    (``bfs_unbounded``).
  - *Pair searches* (:meth:`hops`) are target-terminated: the memo is
    probed for either endpoint (the graph is undirected), live
    component labels refute cross-component pairs for free, and
    otherwise a bidirectional BFS grows the smaller frontier one level
    at a time until the two sides touch.  A route costs about two
    half-length balls, never the component, and stores nothing.
  - *Nearest searches* (:meth:`nearest`) walk outwards level by level
    and stop at the first level holding an accepted node.

* **Incremental invalidation.**  ``add_node`` / ``remove_node`` no
  longer force a full rebuild: mutations are applied lazily, and when
  the graph is refreshed only the *dirty* set — added, removed and
  moved slots — has its cells and edges recomputed.  A full rebuild
  happens only when the dirty set is large, when store compaction
  renumbered slots, on explicit :meth:`invalidate` (alive-flag
  changes), or on first use.  Both refresh paths produce identical
  graphs: the delta path is an exact optimization, not an
  approximation.

* **Incremental connectivity labels.**  Connected-component membership
  is a first-class product of the rebuild machinery: once a caller
  asks a label question (:meth:`same_component`,
  :meth:`component_size`, :meth:`component_members`), per-slot labels
  are maintained alongside the graph.  Full rebuilds relabel every
  slot in one sweep, and each component keeps the label its minimum
  slot had, so a refresh that leaves the partition alone moves no
  label; delta rebuilds relabel only the dirty region —
  detached slots leave their components, a probe around each hole
  they leave proves no split happened (or a race from the whole
  boundary relabels exactly the pieces that came off when one did),
  and re-inserted slots join/merge neighbor components.  Labels are
  provably bit-identical to :meth:`components` from scratch at every
  refresh, so partition checks and merge scans become O(1) lookups and
  O(component) member iteration instead of unbounded BFS floods (the
  ``conn_*`` counters prove the floods are gone).

The engine is validated against a networkx oracle
(``tests/net/oracle.py``) for edge sets, hop counts, iteration order
and connected components — see ``tests/net/test_topology_oracle.py``
and ``tests/net/test_store_oracle.py``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import (Callable, Collection, Dict, Iterable, List,
                    Optional, Set, Tuple, TypeVar)

from repro.net.grid import CellGrid
from repro.net.node import Node
from repro.net.store import NodeStore
from repro.perf import PerfRecorder
from repro.perf import counters as cnt
from repro.sim.engine import Simulator

_INF = float("inf")
_T = TypeVar("_T")

#: Delta-refresh falls back to a full rebuild once more than this
#: fraction of the population is dirty (added + removed + moved) — at
#: that point recomputing everything through the grid is cheaper than
#: patching adjacency lists one node at a time.
DELTA_REBUILD_MAX_DIRTY_FRACTION = 0.25

#: What :meth:`Topology.current_version` answers while the next query
#: would refresh the graph; versions start at 0 and only grow.
STALE = -1

#: The label journal (:meth:`Topology.take_moved_labels`) is dropped
#: once it names more ids than this many per slot, and its reader
#: starts over.  That re-reads everything it derived from the labels
#: (the component table also wakes every parked merge scan), so the
#: bound sits well above the longest journal the ledger's workloads
#: grow between two takes (0.4 per slot).
JOURNAL_MAX_PER_SLOT = 4


class Topology:
    """Tracks node positions and answers hop-count queries.

    Args:
        sim: the simulation clock source.
        transmission_range: radio range in meters (the paper's ``tr``).
        refresh_interval: how stale the cached graph may become before a
            rebuild; positions move at most ``speed * refresh_interval``
            between rebuilds (at 20 m/s and 0.5 s that is 10 m, small
            against ranges of 100-250 m).
        perf: shared :class:`~repro.perf.PerfRecorder`; a private one is
            created when not given (standalone/test use).
    """

    def __init__(
        self,
        sim: Simulator,
        transmission_range: float,
        refresh_interval: float = 0.5,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        if transmission_range <= 0:
            raise ValueError("transmission range must be positive")
        self.sim = sim
        self.transmission_range = transmission_range
        self.refresh_interval = refresh_interval
        self.perf = perf if perf is not None else PerfRecorder()
        self._nodes = NodeStore()
        # --- graph snapshot state --------------------------------------
        self._have_graph = False
        self._graph_time: float = -1.0
        self._graph_version: int = 0
        self._graph_layout: int = -1     # store.layout_version at build
        self._graph_slots: List[int] = []
        self._in_graph = bytearray()     # slot -> 1 if in current graph
        self._adj: List[List[int]] = []  # slot -> neighbor slots, ascending
        self._grid = CellGrid(transmission_range)
        # --- invalidation flags ----------------------------------------
        self._force_full = True      # invalidate() / first build
        self._members_dirty = False  # add_node/remove_node since build
        # --- BFS memo: id -> (depth_computed, complete, lengths) -------
        self._bfs_cache: Dict[int, Tuple[float, bool, Dict[int, int]]] = {}
        # --- BFS scratch: slot -> visit epoch (never reset, only bumped)
        self._bfs_mark: List[int] = []
        self._bfs_epoch = 0
        # --- connectivity labels (lazily activated on first query) -----
        # slot -> component table index (-1 while unlabeled / not in
        # graph).  The table maps index -> ascending member-slot list;
        # the *public* component id is derived (min-slot member's node
        # id), so representative changes never need a relabel.
        self._comp_of: List[int] = []
        self._comp_members: Dict[int, List[int]] = {}
        self._comp_next = 0
        self._labels_active = False  # a label query has happened
        self._labels_valid = False   # labels match the current graph
        self._labels_layout = -1     # store.layout_version at relabel
        # The label journal: ids whose label moved since the last take,
        # and whether labels may have moved that it does not name (see
        # :meth:`take_moved_labels`).
        self._label_moves: List[int] = []
        self._journal_lost = True
        # The removal journal: labels of the components that lost a
        # slot since the last take, ``None`` when any may have (see
        # :meth:`take_removals`).
        self._removed_from: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        self._nodes.add(node)  # raises on duplicate id
        self._members_dirty = True
        self._bfs_cache.clear()

    def add_nodes(self, nodes: Iterable[Node]) -> int:
        """Register many nodes in one batch (the bulk-setup fast path).

        Equivalent to calling :meth:`add_node` per node, but the store
        extends its parallel arrays once and the BFS memo is cleared
        once, which is what lets the perf ledger's workloads stand up
        a 10k-node population without n separate invalidation rounds.
        Returns the number of nodes registered.
        """
        count = self._nodes.add_many(nodes)
        if count:
            self._members_dirty = True
            self._bfs_cache.clear()
        return count

    def remove_node(self, node: Node) -> None:
        """Evict a node entirely (graceful leave, vanish, permanent
        crash).  Unlike a mere ``alive = False``, eviction tombstones
        the node's slot — and store compaction eventually reclaims it —
        so long churn scenarios do not degrade rebuilds."""
        if self._nodes.evict(node.node_id):
            self._members_dirty = True
            self._bfs_cache.clear()

    def get(self, node_id: int) -> Optional[Node]:
        return self._nodes.get(node_id)

    def nodes(self) -> List[Node]:
        """All alive nodes currently in the area."""
        return self._nodes.alive_nodes()

    @property
    def store(self) -> NodeStore:
        """The struct-of-arrays population state (read-mostly surface)."""
        return self._nodes

    def invalidate(self) -> None:
        """Force a full graph rebuild on the next query.

        The blanket hammer for out-of-band changes of *unknown* scope
        (oracle comparisons, benches that mutate positions directly).
        Liveness changes with a known blast radius should use
        :meth:`invalidate_nodes`, which keeps the delta-rebuild path
        eligible instead of forcing the O(n) full path.
        """
        self._force_full = True
        self._bfs_cache.clear()

    def invalidate_nodes(self, node_ids: Iterable[int]) -> None:
        """Node-scoped invalidation for out-of-band liveness changes.

        A fault crash/restart flips ``node.alive`` without going
        through :meth:`add_node` / :meth:`remove_node`, so the graph
        must be refreshed — but the *scope* is known: exactly the given
        nodes changed.  Marking the membership dirty (rather than
        forcing a full rebuild) lets :meth:`_ensure_graph` take the
        delta path, which re-derives membership from the alive flags
        and recomputes only the edges touching the flipped slots.  The
        result is identical to a full rebuild — the delta path is an
        exact optimization — but crash/restart churn now costs
        O(dirty), not O(n) (watch ``graph_node_invalidations`` vs
        ``graph_full_rebuilds``).

        Ids not present in the store are ignored (the fault may race a
        departure); an empty iterable is a no-op.
        """
        count = 0
        for node_id in node_ids:
            if node_id in self._nodes.slot_of:
                count += 1
        if count == 0:
            return
        self.perf.incr(cnt.GRAPH_NODE_INVALIDATIONS, count)
        self._members_dirty = True
        self._bfs_cache.clear()

    # ------------------------------------------------------------------
    # Graph maintenance
    # ------------------------------------------------------------------
    def _ensure_capacity(self) -> None:
        """Grow slot-indexed scratch to the store's slot space."""
        cap = self._nodes.capacity
        grow = cap - len(self._in_graph)
        if grow > 0:
            self._in_graph.extend(b"\x00" * grow)
            self._adj.extend([] for _ in range(grow))
        if cap > len(self._bfs_mark):
            self._bfs_mark.extend([0] * (cap - len(self._bfs_mark)))
        if cap > len(self._comp_of):
            self._comp_of.extend([-1] * (cap - len(self._comp_of)))

    def _ensure_graph(self) -> None:
        """Bring the graph snapshot up to date with ``sim.now``.

        Mirrors the original engine's policy exactly: a snapshot is
        served as long as it is younger than ``refresh_interval`` *and*
        nothing mutated; any mutation forces the next query to see a
        graph equivalent to a full rebuild at that query's time.
        """
        now = self.sim.now
        # current_version()'s test, inlined: every query passes here.
        if (
            self._have_graph
            and not self._force_full
            and not self._members_dirty
            and now - self._graph_time <= self.refresh_interval
        ):
            return
        self.perf.incr(cnt.GRAPH_REBUILDS)
        with self.perf.timer(cnt.TIMER_TOPOLOGY_REBUILD):
            alive, moved = self._nodes.refresh_positions(now)
            self.perf.incr(cnt.GRAPH_POSITIONS_RECOMPUTED,
                           self._nodes.last_refresh_recomputed)
            if (
                self._have_graph
                and not self._force_full
                and self._nodes.layout_version == self._graph_layout
            ):
                changed = self._try_delta_rebuild(alive, moved)
                if changed is not None:
                    self._finish_rebuild(now, changed)
                    return
            self._full_rebuild(alive)
            self._finish_rebuild(now, True)

    def _finish_rebuild(self, now: float, changed: bool) -> None:
        self._have_graph = True
        self._force_full = False
        self._members_dirty = False
        self._graph_time = now
        self._graph_layout = self._nodes.layout_version
        if changed:
            # A refresh that moved nothing leaves the graph — and
            # therefore every memoized BFS answer and every
            # version-keyed derived view — bit-identical, so the memo
            # and the version survive; any actual change drops the one
            # and bumps the other.
            self._graph_version += 1
            self._bfs_cache.clear()

    def _full_rebuild(self, alive: List[int]) -> None:
        self.perf.incr(cnt.GRAPH_FULL_REBUILDS)
        self._removed_from = None
        self._ensure_capacity()
        # The labels no longer match the graph; the next label query
        # runs a full relabel sweep.
        self._labels_valid = False
        store = self._nodes
        cap = store.capacity
        xs, ys = store.xs, store.ys
        self._graph_slots = alive
        in_graph = bytearray(cap)
        for slot in alive:
            in_graph[slot] = 1
        self._in_graph = in_graph
        adj: List[List[int]] = [[] for _ in range(cap)]
        self._adj = adj
        grid = self._grid
        # Slots ascending => cell buckets are rank-ordered.
        grid.rebuild((slot, xs[slot], ys[slot]) for slot in alive)
        limit = self.transmission_range ** 2
        edges = 0
        # Each unordered cell pair is visited exactly once: within the
        # cell itself plus four "forward" neighbor cells, so every edge
        # is tested once (the dense path tested each pair twice).
        for (cx, cy), bucket in grid.cells.items():
            blen = len(bucket)
            for ii in range(blen):
                u = bucket[ii]
                ux = xs[u]
                uy = ys[u]
                for jj in range(ii + 1, blen):
                    v = bucket[jj]
                    dx = ux - xs[v]
                    dy = uy - ys[v]
                    if dx * dx + dy * dy <= limit:
                        adj[u].append(v)
                        adj[v].append(u)
                        edges += 1
            for delta in ((1, 0), (1, 1), (0, 1), (-1, 1)):
                other = grid.cells.get((cx + delta[0], cy + delta[1]))
                if not other:
                    continue
                for u in bucket:
                    ux = xs[u]
                    uy = ys[u]
                    for v in other:
                        dx = ux - xs[v]
                        dy = uy - ys[v]
                        if dx * dx + dy * dy <= limit:
                            adj[u].append(v)
                            adj[v].append(u)
                            edges += 1
        # Edges were discovered in cell order; adjacency must be in
        # slot (population-insertion) order to reproduce the original
        # networkx iteration order bit for bit.
        for slot in alive:
            adj[slot].sort()
        self.perf.incr(cnt.GRAPH_EDGES_BUILT, edges)

    def _try_delta_rebuild(
        self,
        alive: List[int],
        moved: List[Tuple[int, float, float]],
    ) -> Optional[bool]:
        """Refresh by recomputing only dirty slots.

        Returns ``None`` when the dirty set is too large (caller falls
        back to a full rebuild), ``False`` when nothing changed at all
        (the graph — and the BFS memo — stay valid verbatim), ``True``
        after an in-place patch.

        Exactness argument: membership is re-derived the same way a
        full rebuild derives it, unchanged slots keep bit-identical
        cached positions so their mutual edges cannot differ, and every
        edge touching a dirty slot is recomputed with the same
        arithmetic the full path uses.  Slot numbers never go stale
        (compaction forces the full path), so ascending-slot adjacency
        is exactly the insertion order a fresh enumeration would give.
        """
        self._ensure_capacity()
        store = self._nodes
        in_graph = self._in_graph
        nodes = store.nodes
        added: List[int] = []
        removed: List[int] = []
        # Both lists are ascending, so equal lists mean equal membership
        # and one C-level compare spares two walks of the population.
        if alive != self._graph_slots:
            added = [slot for slot in alive if not in_graph[slot]]
            removed = [
                slot for slot in self._graph_slots
                if (node := nodes[slot]) is None or not node.alive
            ]
        moved = [entry for entry in moved if in_graph[entry[0]]]
        dirty_count = len(added) + len(removed) + len(moved)
        if dirty_count > DELTA_REBUILD_MAX_DIRTY_FRACTION * max(1, len(alive)):
            return None
        if dirty_count == 0:
            return False  # refresh-interval expiry, nobody moved
        self.perf.incr(cnt.GRAPH_DELTA_REBUILDS)
        self.perf.incr(cnt.GRAPH_DELTA_DIRTY_NODES, dirty_count)
        track_labels = self._labels_active and self._labels_valid
        if (removed or moved) and not track_labels:
            self._removed_from = None  # only a pure arrival drops no edge
        adj = self._adj
        grid = self._grid
        xs, ys = store.xs, store.ys
        moved_slots = [entry[0] for entry in moved]
        gone: Set[int] = set(removed)
        gone.update(moved_slots)
        detached = removed + moved_slots
        # Connectivity labels ride the delta: before the adjacency is
        # torn down, group the detached slots into *clusters* (maximal
        # sets joined by old edges; one component each) and capture
        # every cluster's boundary, its *surviving* old neighbors.  An
        # old path between survivors that crosses the detached set
        # enters a cluster through one boundary slot and leaves it
        # through another, so the component stays whole exactly when
        # every cluster's boundary stays mutually connected — which
        # :meth:`_delta_relabel` proves around each hole, or repairs.
        clusters_by_comp: Dict[int, List[Set[int]]] = {}
        if track_labels:
            comp_of = self._comp_of
            clustered: Set[int] = set()
            for first in sorted(detached):
                if first in clustered:
                    continue
                clustered.add(first)
                boundary: Set[int] = set()
                pending = [first]
                while pending:
                    for nb in adj[pending.pop()]:
                        if nb not in gone:
                            boundary.add(nb)
                        elif nb not in clustered:
                            clustered.add(nb)
                            pending.append(nb)
                clusters_by_comp.setdefault(
                    comp_of[first], []).append(boundary)
        # 1) detach every removed/moved slot from the old structure
        #    (moved slots part from their *pre-refresh* cell).
        for slot, old_x, old_y in moved:
            grid.remove(slot, grid.cell_of(old_x, old_y))
        for slot in removed:
            grid.remove(slot, grid.cell_of(xs[slot], ys[slot]))
        for slot in detached:
            for nb in adj[slot]:
                if nb not in gone:
                    adj[nb].remove(slot)
            adj[slot] = []
            in_graph[slot] = 0
        # 2) (re)insert moved + added slots at their current positions.
        dirty = sorted(moved_slots + added)
        for slot in dirty:
            in_graph[slot] = 1
            adj[slot] = []
            grid.insert_ranked(slot, grid.cell_of(xs[slot], ys[slot]))
        # 3) recompute edges touching dirty slots.
        limit = self.transmission_range ** 2
        dirty_set = set(dirty)
        edges = 0
        for slot in dirty:
            x = xs[slot]
            y = ys[slot]
            for u in grid.candidates(grid.cell_of(x, y)):
                if u == slot:
                    continue
                if u < slot and u in dirty_set:
                    continue  # pair already handled from u's side
                dx = x - xs[u]
                dy = y - ys[u]
                if dx * dx + dy * dy <= limit:
                    insort(adj[slot], u)
                    insort(adj[u], slot)
                    edges += 1
        self.perf.incr(cnt.GRAPH_EDGES_BUILT, edges)
        # Membership changed in place; rebuild the ascending slot list.
        if added or removed:
            self._graph_slots = alive
        if track_labels:
            self._delta_relabel(detached, clusters_by_comp, dirty)
        return True

    # ------------------------------------------------------------------
    # Connectivity labels (incremental component tracking)
    # ------------------------------------------------------------------
    def _ensure_labels(self) -> None:
        """Bring component labels up to date with the current graph.

        The first label query activates maintenance; from then on delta
        rebuilds keep the labels current incrementally and only full
        rebuilds (large dirty sets, compaction, blanket invalidation)
        schedule a fresh full relabel — the same fallback discipline
        the graph itself uses.
        """
        self._ensure_graph()
        self._labels_active = True
        if not self._labels_valid:
            self._full_relabel()

    def _full_relabel(self) -> None:
        """Label every slot with one BFS sweep in ascending-slot order.

        Ascending iteration guarantees each component's BFS starts at
        its minimum slot, so table entries are discovered in canonical
        order and the whole procedure is deterministic.  Each component
        takes the label its minimum slot had before, unless an earlier
        component already took that label; only then a fresh one, and
        fresh labels never repeat an old one.  So a sweep that finds the
        partition it replaces moves no label, and the journal gains
        exactly the ids whose label differs (slots that left the graph
        included).  Slot numbers that compaction changed share nothing
        with the old labels: then every label is fresh and the journal
        is lost.
        """
        self.perf.incr(cnt.CONN_RELABELS)
        self.perf.incr(cnt.CONN_FULL_RELABELS)
        store = self._nodes
        cap = max(store.capacity, len(self._in_graph))
        kept = self._labels_layout == store.layout_version
        old = self._comp_of if kept else []
        old.extend([-1] * (cap - len(old)))
        comp_of = [-1] * cap
        self._comp_of = comp_of
        members: Dict[int, List[int]] = {}
        self._comp_members = members
        adj = self._adj
        mark = self._bfs_mark
        self._bfs_epoch += 1
        epoch = self._bfs_epoch
        nxt = self._comp_next
        for slot in self._graph_slots:
            if mark[slot] == epoch:
                continue
            idx = old[slot]
            if idx < 0 or idx in members:
                idx = nxt
                nxt += 1
            mark[slot] = epoch
            comp_of[slot] = idx
            comp = [slot]
            frontier = [slot]
            while frontier:
                level: List[int] = []
                for v in frontier:
                    for w in adj[v]:
                        if mark[w] != epoch:
                            mark[w] = epoch
                            comp_of[w] = idx
                            comp.append(w)
                            level.append(w)
                frontier = level
            comp.sort()
            members[idx] = comp
        self._comp_next = nxt
        self._labels_valid = True
        self._labels_layout = store.layout_version
        moves = self._label_moves
        if kept:
            moves.extend(node_id for node_id, was, now
                         in zip(store.ids, old, comp_of) if was != now)
        if not kept or len(moves) > JOURNAL_MAX_PER_SLOT * store.capacity:
            self._journal_lost = True
            self._label_moves = []
        self.perf.incr(cnt.CONN_SLOTS_RELABELED, len(self._graph_slots))

    def _delta_relabel(
        self,
        detached: List[int],
        clusters_by_comp: Dict[int, List[Set[int]]],
        reinserted: List[int],
    ) -> None:
        """Patch labels after a delta rebuild (exact, O(dirty region)).

        Three steps, mirroring the graph patch itself:

        1. Detached slots leave their components.
        2. Each component that lost slots is checked for a split.  The
           detached slots come grouped in clusters (maximal sets joined
           by old edges), each with its boundary of surviving old
           neighbors, and the component is still whole **iff every
           cluster's boundary is still mutually connected through
           surviving slots**: any old path between two survivors is
           runs of survivors and runs of detached slots, a detached run
           lies in one cluster, enters it from one boundary slot and
           leaves it to another, and can be replaced by the survivor
           path between those two.  Survivor-to-survivor edges are
           bit-identical to the old graph (neither endpoint was dirty),
           so the proof is sound, and it is local
           (:meth:`_locally_intact`): it reads the slots around each
           hole, not the component.  Only when a hole's boundary really
           has come apart does the whole boundary race
           (:meth:`_verify_or_split`), which relabels exactly the
           pieces that came off.
        3. Re-inserted slots (moved + added) adopt the label of their
           new neighbors, merging components when they bridge several —
           only the smaller (by canonical min-slot) side is relabeled.

        The result is identical to a full relabel of the new graph.
        Writes (``conn_slots_relabeled``) are bounded by the dirty
        region plus any genuinely split or merged components; reads of
        step 2 (``conn_split_slots_scanned``) by the holes' surroundings
        plus, on a real split, twice the smaller piece — neither by the
        population.
        """
        self.perf.incr(cnt.CONN_RELABELS)
        self.perf.incr(cnt.CONN_DELTA_RELABELS)
        comp_of = self._comp_of
        members = self._comp_members
        removed_from = self._removed_from
        relabeled = 0
        scanned = 0
        moves = self._label_moves
        ids = self._nodes.ids
        moves.extend(ids[slot] for slot in detached)
        # 1) detach; every component a slot leaves may have lost a path
        for slot in detached:
            idx = comp_of[slot]
            comp_of[slot] = -1
            if removed_from is not None:
                removed_from.add(idx)
            comp = members[idx]
            del comp[bisect_left(comp, slot)]
            if not comp:
                del members[idx]
        # 2) split verification (or exact repair) per affected component
        for idx in sorted(clusters_by_comp):
            if idx not in members:
                continue  # everything detached; nothing left to split
            clusters = clusters_by_comp[idx]
            intact, read = self._locally_intact(idx, clusters)
            scanned += read
            if not intact:
                whole: Set[int] = set().union(*clusters)
                wrote, read = self._verify_or_split(idx, whole)
                relabeled += wrote
                scanned += read
        # 3) label the re-inserted slots
        relabeled += self._label_reinserted(reinserted)
        self.perf.incr(cnt.CONN_SLOTS_RELABELED, relabeled)
        self.perf.incr(cnt.CONN_SPLIT_SLOTS_SCANNED, scanned)
        if len(moves) > JOURNAL_MAX_PER_SLOT * self._nodes.capacity:
            # A bound on the journal's memory: its reader starts over.
            self._journal_lost = True
            self._label_moves = []

    def _locally_intact(
        self, idx: int, clusters: List[Set[int]],
    ) -> Tuple[bool, int]:
        """Prove, hole by hole, that component ``idx`` did not split:
        ``(proved, slots whose adjacency was read)``.

        Per cluster the lowest boundary slot is the pivot.  It and its
        surviving neighbors are stamped; a boundary slot that carries
        the stamp or touches a stamped slot is within two hops of the
        pivot (in a unit-disk graph the boundary sits inside a disk of
        about one range around the hole, so that is nearly all of
        them).  The slots left open race each other and the pivot
        (:meth:`_split_race`): all searches meeting connects the
        boundary, and every boundary connected proves the component.

        ``False`` is as exact as ``True``: a search that closes while a
        rival runs has enclosed a piece that really came off.  Nothing
        is relabeled here even then — a cluster's race seeds only its
        own hole, so its verdict on which piece keeps the old label
        could strand a piece that another hole cut off with no seed in
        it.  The caller reruns the race from the *whole* boundary,
        which has a seed in every piece.

        Like both races this steps on surviving slots only (label ==
        ``idx``): re-inserted slots already have their new edges in
        ``adj`` but no label yet, and reconnection through them is
        step 3's job.
        """
        adj = self._adj
        comp_of = self._comp_of
        mark = self._bfs_mark
        scanned = 0
        for boundary in clusters:
            if len(boundary) < 2:
                continue
            pivot = min(boundary)
            self._bfs_epoch += 1
            epoch = self._bfs_epoch
            mark[pivot] = epoch
            for w in adj[pivot]:
                if comp_of[w] == idx:
                    mark[w] = epoch
            scanned += 1
            seeds = [pivot]
            for slot in boundary:
                if mark[slot] == epoch:
                    continue
                scanned += 1
                for w in adj[slot]:
                    if mark[w] == epoch:
                        break
                else:
                    seeds.append(slot)
            if len(seeds) > 1:
                seeds.sort()  # the race rotates in seed order
                pieces, read = self._split_race(idx, seeds)
                scanned += read
                if pieces:
                    return False, scanned
        return True, scanned

    def _split_race(
        self, idx: int, seeds: List[int],
    ) -> Tuple[List[List[int]], int]:
        """Race a lockstep multi-source BFS from ``seeds`` (ascending)
        over the surviving slots of component ``idx``: ``(regions that
        closed, slots whose adjacency was read)``.  Relabels nothing.

        Two searches that touch merge into one; a search whose frontier
        empties while rivals are still running has provably enclosed a
        maximal piece of the split.  The race stops when one search
        remains, and everything it has not claimed belongs to that one.
        This is the classic smaller-half discipline: a split (and the
        no-split proof) costs O(everything except the largest piece),
        so cutting a village off a 10k-node giant pays for the village,
        never the giant — and seeds that sit around one hole meet after
        a few steps.
        """
        adj = self._adj
        comp_of = self._comp_of
        alias: Dict[int, int] = {}  # merged-away root -> absorbing root

        def find(root: int) -> int:
            while root in alias:
                root = alias[root]
            return root

        root_of: Dict[int, int] = {s: s for s in seeds}
        queues: Dict[int, List[int]] = {s: [s] for s in seeds}
        scanned: Dict[int, int] = {s: 0 for s in seeds}
        regions: Dict[int, List[int]] = {s: [s] for s in seeds}
        live = seeds[:]  # deterministic rotation order
        completed: List[List[int]] = []
        read = 0
        while len(live) > 1:
            for root in live[:]:
                if len(live) <= 1:
                    break  # a lone survivor must keep the old label
                if find(root) != root:
                    live.remove(root)  # absorbed earlier in this pass
                    continue
                q = queues[root]
                h = scanned[root]
                if h >= len(q):
                    # Frontier exhausted with rivals still running: the
                    # region's closure is entirely itself — a maximal
                    # piece of the split.
                    completed.append(regions[root])
                    live.remove(root)
                    continue
                v = q[h]
                scanned[root] = h + 1
                read += 1
                for w in adj[v]:
                    if comp_of[w] != idx:
                        continue
                    owner = root_of.get(w)
                    if owner is None:
                        root_of[w] = root
                        q.append(w)
                        regions[root].append(w)
                        continue
                    owner = find(owner)
                    if owner != root:
                        # Two searches met: they explore one connected
                        # region; fold the rival into this search.
                        alias[owner] = root
                        oq = queues.pop(owner)
                        q.extend(oq[scanned.pop(owner):])
                        regions[root].extend(regions.pop(owner))
        return completed, read

    def _verify_or_split(self, idx: int, bset: Set[int]) -> Tuple[int, int]:
        """Split component ``idx`` exactly where its detachments cut
        it: ``(slots relabeled, slots whose adjacency was read)``.

        ``bset`` is the component's whole boundary, so every piece of a
        split holds a seed and :meth:`_split_race` encloses all pieces
        but the last one running.  Only the enclosed pieces are
        relabeled; the remainder keeps the old label untouched.  (No
        piece enclosed means no split, and nothing is written.)
        """
        comp_of = self._comp_of
        members = self._comp_members
        completed, read = self._split_race(idx, sorted(bset))
        comp = members[idx]
        relabeled = 0
        for region in completed:
            new_idx = self._comp_next
            self._comp_next += 1
            region.sort()
            members[new_idx] = region
            for slot in region:
                comp_of[slot] = new_idx
                del comp[bisect_left(comp, slot)]
            relabeled += len(region)
            self._label_moves.extend(self._nodes.ids[s] for s in region)
        return relabeled, read

    def _label_reinserted(self, reinserted: List[int]) -> int:
        """Label each re-inserted slot from its new neighbors (ascending
        slot order), merging components bridged by it.  Returns the
        number of slots whose label was written."""
        adj = self._adj
        comp_of = self._comp_of
        members = self._comp_members
        moves = self._label_moves
        ids = self._nodes.ids
        moves.extend(ids[slot] for slot in reinserted)
        relabeled = 0
        for slot in reinserted:
            neigh: List[int] = []
            for nb in adj[slot]:
                idx = comp_of[nb]
                if idx >= 0 and idx not in neigh:
                    neigh.append(idx)
            if not neigh:
                idx = self._comp_next
                self._comp_next += 1
                members[idx] = [slot]
                comp_of[slot] = idx
                relabeled += 1
                continue
            if len(neigh) == 1:
                winner = neigh[0]
            else:
                # The slot bridges several components: merge the losers
                # into the one whose canonical (min-slot) member is
                # smallest, relabeling only the losers.
                winner = min(neigh, key=lambda i: members[i][0])
                merged = members[winner]
                for idx in neigh:
                    if idx == winner:
                        continue
                    lost = members.pop(idx)
                    for s in lost:
                        comp_of[s] = winner
                    merged.extend(lost)
                    moves.extend(ids[s] for s in lost)
                    relabeled += len(lost)
                merged.sort()
            insort(members[winner], slot)
            comp_of[slot] = winner
            relabeled += 1
        return relabeled

    # --- public label queries -----------------------------------------
    def same_component(self, a: int, b: int) -> bool:
        """True iff ``a`` and ``b`` are in one connected component.

        O(1): two slot resolutions and a label compare.  Either node
        missing from the graph (dead, departed, never added) is False —
        matching ``hops(a, b, max_hops=None) is not None`` exactly,
        with no component walk.
        """
        self._ensure_labels()
        slot_a = self._graph_slot(a)
        if slot_a is None:
            return False
        slot_b = self._graph_slot(b)
        if slot_b is None:
            return False
        self.perf.incr(cnt.CONN_LABEL_HITS)
        return self._comp_of[slot_a] == self._comp_of[slot_b]

    def component_indices(
            self, node_ids: Iterable[int]) -> List[Optional[int]]:
        """The batched label query: per id, in order, the index of its
        component, ``None`` where the id is not in the current graph
        (dead, departed, never added, not yet refreshed in).

        Two ids share a component exactly when their indices are equal
        and not ``None`` — the pointwise :meth:`same_component`.  The
        index is the labels' internal name for a component.  An id keeps
        its index until :meth:`take_moved_labels` names it, so only the
        journal's reader may keep an index past the graph's next change
        (:attr:`graph_version`); anyone else compares and groups within
        one query round.

        One graph-and-label currency check covers the whole batch, and
        the batch is one question served from the labels:
        ``conn_label_hits`` goes up by one per call that finds at least
        one id in the graph, however many ids it carries.
        """
        self._ensure_labels()
        slot_of = self._nodes.slot_of
        in_graph = self._in_graph
        comp_of = self._comp_of
        limit = len(in_graph)
        out: List[Optional[int]] = []
        found = False
        for node_id in node_ids:
            slot = slot_of.get(node_id)
            if slot is None or slot >= limit or not in_graph[slot]:
                out.append(None)
            else:
                out.append(comp_of[slot])
                found = True
        if found:
            self.perf.incr(cnt.CONN_LABEL_HITS)
        return out

    def component_size(self, component_id: int) -> int:
        """Member count of the given component (0 if unknown).

        Accepts any member's node id.
        """
        self._ensure_labels()
        slot = self._graph_slot(component_id)
        if slot is None:
            return 0
        self.perf.incr(cnt.CONN_LABEL_HITS)
        return len(self._comp_members[self._comp_of[slot]])

    def component_members(self, component_id: int) -> List[int]:
        """Member node ids of the given component, in graph (insertion)
        order, so the earliest-inserted member comes first; empty if
        unknown.  Accepts any member's node id.  O(component) —
        the bounded replacement for an unbounded ``reachable`` flood.
        """
        self._ensure_labels()
        slot = self._graph_slot(component_id)
        if slot is None:
            return []
        self.perf.incr(cnt.CONN_LABEL_HITS)
        ids = self._nodes.ids
        return [ids[s] for s in self._comp_members[self._comp_of[slot]]]

    def component_count(self) -> int:
        """Number of connected components in the current graph."""
        self._ensure_labels()
        self.perf.incr(cnt.CONN_LABEL_HITS)
        return len(self._comp_members)

    def component_count_stale(self) -> int:
        """Component count as of the last label maintenance — passive.

        The observer's read (the metrics layer samples this): it never
        forces a rebuild or relabel, never activates the label layer,
        and never touches a perf counter, so sampling it cannot perturb
        a run.  The price is staleness — a pending rebuild is not
        reflected until a real label query lands — and 0 when the label
        layer was never activated at all.
        """
        if not self._labels_active:
            return 0
        return len(self._comp_members)

    # ------------------------------------------------------------------
    # Graph version and size
    # ------------------------------------------------------------------
    @property
    def graph_version(self) -> int:
        return self._graph_version

    def current_version(self) -> int:
        """:attr:`graph_version` if a query now would be served from
        the current snapshot without refreshing it, else :data:`STALE`.

        Passive, like :meth:`component_count_stale`: it never refreshes
        the graph and counts nothing.  A caller that remembers the
        version under which an answer held can compare it here without
        deciding when the next refresh falls."""
        if (self._have_graph
                and not self._force_full
                and not self._members_dirty
                and self.sim.now - self._graph_time <= self.refresh_interval):
            return self._graph_version
        return STALE

    def labels_current(self) -> bool:
        """Whether a label query now would be answered without a graph
        refresh or a relabel.  Passive, like :meth:`current_version`."""
        return self._labels_valid and self.current_version() != STALE

    def take_removals(self) -> Optional[Set[int]]:
        """Hand over the removal journal and start it afresh: the labels
        of the components that lost a slot (a departure, crash or move:
        only that may lengthen a path) since the last take, or ``None``
        when any may have (no take yet, a full rebuild, or a removal
        while the labels were not current)."""
        removed, self._removed_from = self._removed_from, set()
        return removed

    def take_moved_labels(self) -> Optional[List[int]]:
        """Hand over the label journal and start it afresh: the ids
        whose label moved since the last take, each at least once, in
        no promised order (slots that left or joined the graph, pieces
        split off, components merged away, and whatever a full relabel
        found in another component than before).  Every other id has
        the label it had at the last take.  ``None`` when labels may
        have moved that the journal does not name: no take yet, the
        first relabel or one after a store compaction since, or a
        journal grown past :data:`JOURNAL_MAX_PER_SLOT` ids per slot.
        The journal has one reader, the component table
        (:class:`~repro.net.context.NetworkContext`)."""
        moves: Optional[List[int]] = self._label_moves
        if self._journal_lost:
            self._journal_lost = False
            moves = None
        self._label_moves = []
        return moves

    def _graph_slot(self, node_id: int) -> Optional[int]:
        """The node's slot if it is in the current graph, else None."""
        slot = self._nodes.slot_of.get(node_id)
        if slot is None or slot >= len(self._in_graph) or not self._in_graph[slot]:
            return None
        return slot

    def edge_count(self) -> int:
        self._ensure_graph()
        adj = self._adj
        return sum(len(adj[slot]) for slot in self._graph_slots) // 2

    # ------------------------------------------------------------------
    # Hop-count queries
    # ------------------------------------------------------------------
    def _memoized(self, node_id: int,
                  need: float) -> Optional[Dict[int, int]]:
        """``node_id``'s memoized distance map if it can answer a query
        ``need`` hops deep (it is complete, or at least that deep);
        counts the hit.  Call only after :meth:`_ensure_graph`."""
        cached = self._bfs_cache.get(node_id)
        if cached is not None and (cached[1] or cached[0] >= need):
            self.perf.incr(cnt.BFS_CACHE_HITS)
            return cached[2]
        return None

    def _search(self, run: Callable[..., Tuple[_T, int]],
                *args: object) -> _T:
        """Run one search of any kind (map, pair, nearest) under the
        shared counters and timer; ``run`` returns ``(answer, nodes
        expanded)``."""
        self.perf.incr(cnt.BFS_CALLS)
        with self.perf.timer(cnt.TIMER_TOPOLOGY_BFS):
            answer, expanded = run(*args)
        self.perf.incr(cnt.BFS_NODES_EXPANDED, expanded)
        return answer

    def _bfs_from(self, node_id: int,
                  max_hops: Optional[int] = None) -> Dict[int, int]:
        """Hop distances from ``node_id``, memoized per graph version.

        With ``max_hops`` the search stops after that level; the
        returned dict may be *deeper* than requested when a deeper
        result is already cached — callers filter.  Iteration order is
        level by level in discovery order, exactly matching the
        original networkx implementation.
        """
        self._ensure_graph()
        need: float = max_hops if max_hops is not None else _INF
        lengths = self._memoized(node_id, need)
        if lengths is not None:
            return lengths
        if need == _INF:
            # A whole-component map is about to be built (memo misses
            # only): a flood.  Pair and nearest searches never count
            # here — they stop at their answer.
            self.perf.incr(cnt.BFS_UNBOUNDED)
        lengths, complete = self._search(self._run_bfs, node_id, need)
        self._bfs_cache[node_id] = (need, complete, lengths)
        return lengths

    def _run_bfs(
        self, source: int, cutoff: float,
    ) -> Tuple[Tuple[Dict[int, int], bool], int]:
        """``((distance map, whole component seen), nodes expanded)``."""
        slot = self._graph_slot(source)
        if slot is None:
            return ({}, True), 0
        n = len(self._graph_slots)
        ids = self._nodes.ids
        adj = self._adj
        mark = self._bfs_mark
        self._bfs_epoch += 1
        epoch = self._bfs_epoch
        lengths: Dict[int, int] = {source: 0}
        mark[slot] = epoch
        nextlevel: List[int] = [slot]
        level = 0
        expanded = 0
        while nextlevel and cutoff > level:
            level += 1
            thislevel = nextlevel
            nextlevel = []
            for v in thislevel:
                expanded += 1
                for w in adj[v]:
                    if mark[w] != epoch:
                        mark[w] = epoch
                        lengths[ids[w]] = level
                        nextlevel.append(w)
                if len(lengths) == n:
                    return (lengths, True), expanded
        return (lengths, not nextlevel), expanded

    def _pair_search(self, slot_a: int, slot_b: int,
                     bound: float) -> Tuple[Optional[int], int]:
        """Bidirectional BFS between two graph slots:
        ``(hops or None, nodes expanded)``.

        Both sides grow level-synchronously, the smaller frontier
        first, each on its own epoch of the shared visit marks.  While
        no edge has crossed, every node within ``da`` of ``a`` and
        every node within ``db`` of ``b`` is marked and no node carries
        both marks, so the distance exceeds ``da + db``; the first edge
        from one side's frontier into the other side's marks therefore
        closes a path of exactly ``da + db + 1`` hops.
        """
        adj = self._adj
        mark = self._bfs_mark
        mine = self._bfs_epoch + 1
        theirs = mine + 1
        self._bfs_epoch = theirs
        mark[slot_a] = mine
        mark[slot_b] = theirs
        frontier = [slot_a]
        other = [slot_b]
        reached = 0     # da + db
        expanded = 0
        while reached < bound:
            if len(frontier) > len(other):
                frontier, other = other, frontier
                mine, theirs = theirs, mine
            nextlevel: List[int] = []
            for v in frontier:
                expanded += 1
                for w in adj[v]:
                    seen = mark[w]
                    if seen == theirs:
                        return reached + 1, expanded
                    if seen != mine:
                        mark[w] = mine
                        nextlevel.append(w)
            if not nextlevel:
                break   # this side's component holds no path across
            frontier = nextlevel
            reached += 1
        return None, expanded

    def _nearest_search(
        self, slot: int, accept: Callable[[int], bool], bound: float,
        among: Optional[Collection[int]],
    ) -> Tuple[Optional[Tuple[int, int]], int]:
        """Level-by-level walk from ``slot`` that stops at the first
        level holding an accepted node (of ``among``, when given):
        ``((id, level) or None, nodes expanded)``."""
        ids = self._nodes.ids
        adj = self._adj
        mark = self._bfs_mark
        self._bfs_epoch += 1
        epoch = self._bfs_epoch
        mark[slot] = epoch
        frontier = [slot]
        level = 0
        expanded = 0
        while frontier and level < bound:
            level += 1
            nextlevel: List[int] = []
            for v in frontier:
                expanded += 1
                for w in adj[v]:
                    if mark[w] != epoch:
                        mark[w] = epoch
                        nextlevel.append(w)
            best: Optional[int] = None
            for w in nextlevel:
                other = ids[w]
                if ((best is None or other < best)
                        and (among is None or other in among)
                        and accept(other)):
                    best = other
            if best is not None:
                return (best, level), expanded
            frontier = nextlevel
        return None, expanded

    def warm_bfs(self, sources: Iterable[int],
                 max_hops: Optional[int] = None) -> int:
        """Batch hop queries for many ``sources`` into the memo.

        One graph-currency check covers the whole batch, and every
        search reuses the shared epoch-stamped scratch arrays; already
        memoized sources cost a dict probe.  Results are identical to
        issuing the per-source queries one by one — this is the warm
        path sweeps and benches use before fanning out per-node reads.
        Returns the number of sources processed.
        """
        self._ensure_graph()
        count = 0
        for source in sources:
            self._bfs_from(source, max_hops=max_hops)
            count += 1
        return count

    def hops(self, a: int, b: int,
             max_hops: Optional[int] = None) -> Optional[int]:
        """Shortest-path hop count from ``a`` to ``b``; None if unreachable.

        ``max_hops`` bounds the search: nodes farther than that report
        ``None`` (indistinguishable from unreachable).

        The query is target-terminated — it costs its answer, not the
        component.  A memoized distance map of *either* endpoint (the
        graph is undirected) answers it outright; component labels, if
        some label query already made them live, refute a pair in two
        components; otherwise a bidirectional search runs until the two
        sides touch.  Nothing is stored: at paper scale a route is
        rarely asked for twice before the graph changes (docs/SCALING.md
        records where that stops holding), and the maps that are shared
        (a head's 3-hop ring, a flood source's component) are already
        memoized by the queries that need them whole.
        """
        if a == b:
            return 0
        self._ensure_graph()
        need: float = max_hops if max_hops is not None else _INF
        for source, target in ((a, b), (b, a)):
            lengths = self._memoized(source, need)
            if lengths is not None:
                d = lengths.get(target)
                return d if d is not None and d <= need else None
        slot_a = self._graph_slot(a)
        slot_b = self._graph_slot(b)
        if slot_a is None or slot_b is None:
            return None
        # Read the labels only where they are already current; asking
        # for them here would switch label maintenance on for runs that
        # never pose a label question.
        if (self._labels_active and self._labels_valid
                and self._comp_of[slot_a] != self._comp_of[slot_b]):
            return None
        return self._search(self._pair_search, slot_a, slot_b, need)

    def nearest(
        self,
        node_id: int,
        accept: Callable[[int], bool],
        max_hops: Optional[int],
        among: Optional[Collection[int]] = None,
    ) -> Optional[Tuple[int, int]]:
        """The closest node other than ``node_id`` that ``accept``
        approves, as ``(id, hops)``; ``None`` if there is none within
        ``max_hops`` (``None``: anywhere in the component).

        ``among`` names the only ids worth asking about — a superset of
        what ``accept`` can approve, such as the registry's
        ``allocator_ids``: an id outside it is passed over by a
        membership probe and ``accept`` runs on the survivors only.
        The answer is the one ``accept`` alone would give.

        Ties at the winning distance go to the lowest id, which is
        ``min((hops, id))`` over :meth:`reachable` without building the
        map: the walk stops at the first level holding an accepted
        node.  A memoized map of ``node_id`` is read instead of
        searching (it is level-ordered, so the read stops as early).

        ``accept`` runs while the shared search scratch is in use: it
        may read agent and node state, but must not issue topology
        queries or mutate the population.
        """
        self._ensure_graph()
        need: float = max_hops if max_hops is not None else _INF
        lengths = self._memoized(node_id, need)
        if lengths is not None:
            best: Optional[Tuple[int, int]] = None
            for other, d in lengths.items():
                if d == 0:
                    continue
                if d > need or (best is not None and d > best[1]):
                    break
                if ((best is None or other < best[0])
                        and (among is None or other in among)
                        and accept(other)):
                    best = (other, d)
            return best
        slot = self._graph_slot(node_id)
        if slot is None:
            return None
        return self._search(self._nearest_search, slot, accept, need, among)

    def neighbors(self, node_id: int) -> List[int]:
        """One-hop neighbor ids."""
        self._ensure_graph()
        slot = self._graph_slot(node_id)
        if slot is None:
            return []
        ids = self._nodes.ids
        return [ids[u] for u in self._adj[slot]]

    def within_hops(
        self, node_id: int, k: int,
        among: Optional[Collection[int]] = None,
    ) -> List[Tuple[int, int]]:
        """``(other_id, hops)`` for every node within ``k`` hops (excl.
        self), nearest level first in discovery order.

        ``among`` keeps only the ids it contains — the candidate set of
        a head scan, say, where a handful of a ring's nodes can pass
        the caller's test.  Whichever of ``among`` and the hop map is
        smaller is walked and probed against the other, so with
        ``among`` the pairs come in no defined order: sort them.
        """
        lengths = self._bfs_from(node_id, max_hops=k)
        if among is None:
            among = lengths     # everyone the map reached
        walked, probed = (
            (among, lengths) if len(among) < len(lengths)
            else (lengths, among))
        return [
            (other, d) for other in walked
            if other in probed and 0 < (d := lengths[other]) <= k
        ]

    def reachable(self, node_id: int,
                  max_hops: Optional[int] = None) -> Dict[int, int]:
        """Reachable nodes with hop distances (including self=0).

        ``max_hops`` bounds the search to that many hops — the BFS
        stops early instead of exploring the whole component.
        """
        lengths = self._bfs_from(node_id, max_hops=max_hops)
        if max_hops is None:
            return dict(lengths)
        return {other: d for other, d in lengths.items() if d <= max_hops}

    def components(self) -> List[Set[int]]:
        """Connected components of the current graph (sets of node ids)."""
        self._ensure_graph()
        ids = self._nodes.ids
        adj = self._adj
        mark = self._bfs_mark
        self._bfs_epoch += 1
        epoch = self._bfs_epoch
        out: List[Set[int]] = []
        for slot in self._graph_slots:
            if mark[slot] == epoch:
                continue
            mark[slot] = epoch
            component = {ids[slot]}
            frontier = [slot]
            while frontier:
                nxt: List[int] = []
                for v in frontier:
                    for w in adj[v]:
                        if mark[w] != epoch:
                            mark[w] = epoch
                            component.add(ids[w])
                            nxt.append(w)
                frontier = nxt
            out.append(component)
        return out
