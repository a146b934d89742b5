"""Struct-of-arrays node state (the scale layer's data backbone).

At a few hundred nodes, keeping one ``Node`` object per entry in a dict
is fine.  At 10k+ nodes the per-object overhead dominates every graph
refresh: a rebuild walks ``n`` Python objects, calls ``position(now)``
on each (even the stationary ones), and allocates a fresh tuple per
node just to discover that almost nobody moved.

:class:`NodeStore` flips the layout to *struct of arrays*:

* **Slots.**  Every node is assigned a monotonically increasing *slot*
  on insertion.  Slots are the array index for every per-node attribute
  (id, position, alive flag, mobility handle) and — because they are
  assigned in insertion order and compaction preserves relative order —
  slot comparison IS rank comparison: the topology's adjacency lists
  can be kept "insertion ordered" by sorting plain ints.

* **Position caching with static skip.**  ``refresh_positions(now)``
  updates the ``xs``/``ys`` arrays and returns exactly the slots whose
  coordinates changed.  A node whose mobility model is :class:`Stationary`
  *and unchanged since the last refresh* is skipped outright — its
  cached coordinates are provably current, because ``Stationary``
  returns the same frozen :class:`~repro.geometry.Point` forever.  Any
  swap of the ``mobility`` attribute (``Node.pin``, a runner giving a
  configured node legs) is detected by object identity and forces a
  recompute, so the skip is an exact optimization, never a staleness
  bug.  In a mostly-static 10k-node network this turns the per-refresh
  position sweep from 10k ``position()`` calls into 10k flag reads.

* **Tombstoned eviction + compaction.**  ``evict`` clears a slot in
  O(1) (every array keeps its length; the slot's entries become inert)
  and bumps a tombstone count.  When tombstones exceed half the slot
  space the arrays are compacted in one pass — relative slot order is
  preserved, so iteration order survives — and ``layout_version`` is
  bumped so anything holding slot references (the topology's adjacency)
  knows to rebuild.  Long churn scenarios therefore stay O(live), not
  O(everything that ever joined).

The store deliberately knows nothing about graphs: it is the substrate
:class:`~repro.net.topology.Topology` builds its cell index and
adjacency on top of.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.mobility.base import MobilityModel, Stationary
from repro.net.node import Node

#: Compaction threshold: once more than this fraction of slots are
#: tombstones (and the store is big enough for compaction to matter),
#: the arrays are rebuilt without them.
COMPACT_TOMBSTONE_FRACTION = 0.5

#: Below this many slots the arrays are left alone — the bookkeeping
#: would cost more than the dead entries.
COMPACT_MIN_SLOTS = 64


class NodeStore:
    """Array-backed population state, indexed by slot.

    The public surface mirrors what the topology used its node dict
    for: ``add`` / ``evict`` / ``get`` / ``__contains__`` / ``__len__``
    and ordered iteration of alive nodes.  Everything else (the raw
    arrays, slot queries) is the topology's private fast path.
    """

    def __init__(self) -> None:
        # slot -> ... parallel arrays.  A tombstoned slot keeps its
        # array entries (node=None marks it dead) until compaction.
        self.ids: List[int] = []
        self.nodes: List[Optional[Node]] = []
        self.xs: array = array("d")
        self.ys: array = array("d")
        #: slot -> mobility object observed at the last position
        #: refresh (None = never refreshed; identity mismatch = the
        #: node swapped models and must be recomputed).
        self._mobility: List[Optional[MobilityModel]] = []
        #: slot -> 1 if the observed mobility model is Stationary.
        self._static: bytearray = bytearray()
        self.slot_of: Dict[int, int] = {}
        self._tombstones = 0
        #: Bumped whenever slot numbering changes (compaction).  Slot
        #: references held outside the store are invalid across bumps.
        self.layout_version = 0
        #: Model reads (``xy()``) the last refresh actually
        #: performed (static nodes are skipped) — surfaced as the
        #: ``graph_positions_recomputed`` perf counter.
        self.last_refresh_recomputed = 0

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------
    def add(self, node: Node) -> int:
        """Append ``node``, returning its slot."""
        if node.node_id in self.slot_of:
            raise ValueError(f"duplicate node id {node.node_id}")
        slot = len(self.ids)
        self.ids.append(node.node_id)
        self.nodes.append(node)
        self.xs.append(0.0)
        self.ys.append(0.0)
        self._mobility.append(None)
        self._static.append(0)
        self.slot_of[node.node_id] = slot
        return slot

    def add_many(self, nodes: Iterable[Node]) -> int:
        """Append a batch of nodes, returning how many were added.

        The bulk-setup fast path: duplicate ids are rejected up front
        (before any state changes, so a failed batch leaves the store
        untouched), then every parallel array is extended once instead
        of per node.  Equivalent to ``add`` in a loop — slots are
        assigned in iteration order — at a fraction of the overhead
        when bootstrapping 10k-node populations.
        """
        batch = list(nodes)
        seen: Dict[int, int] = {}
        for node in batch:
            if node.node_id in self.slot_of or node.node_id in seen:
                raise ValueError(f"duplicate node id {node.node_id}")
            seen[node.node_id] = 1
        if not batch:
            return 0
        base = len(self.ids)
        count = len(batch)
        self.ids.extend(node.node_id for node in batch)
        self.nodes.extend(batch)
        self.xs.extend([0.0] * count)
        self.ys.extend([0.0] * count)
        self._mobility.extend([None] * count)
        self._static.extend(b"\x00" * count)
        for offset, node in enumerate(batch):
            self.slot_of[node.node_id] = base + offset
        return count

    def evict(self, node_id: int) -> bool:
        """Tombstone ``node_id``'s slot; True if it was present."""
        slot = self.slot_of.pop(node_id, None)
        if slot is None:
            return False
        self.nodes[slot] = None
        self._mobility[slot] = None
        self._static[slot] = 0
        self._tombstones += 1
        self._maybe_compact()
        return True

    def _maybe_compact(self) -> None:
        total = len(self.ids)
        if total < COMPACT_MIN_SLOTS:
            return
        if self._tombstones <= COMPACT_TOMBSTONE_FRACTION * total:
            return
        self.compact()

    def compact(self) -> None:
        """Rewrite every array without tombstones (order preserved)."""
        if not self._tombstones:
            return
        keep = [s for s, node in enumerate(self.nodes) if node is not None]
        self.ids = [self.ids[s] for s in keep]
        self.nodes = [self.nodes[s] for s in keep]
        self.xs = array("d", (self.xs[s] for s in keep))
        self.ys = array("d", (self.ys[s] for s in keep))
        self._mobility = [self._mobility[s] for s in keep]
        self._static = bytearray(self._static[s] for s in keep)
        self.slot_of = {nid: s for s, nid in enumerate(self.ids)}
        self._tombstones = 0
        self.layout_version += 1

    # ------------------------------------------------------------------
    # Lookup / iteration
    # ------------------------------------------------------------------
    def get(self, node_id: int) -> Optional[Node]:
        slot = self.slot_of.get(node_id)
        return self.nodes[slot] if slot is not None else None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.slot_of

    def __len__(self) -> int:
        return len(self.slot_of)

    @property
    def capacity(self) -> int:
        """Slot-space size including tombstones (array lengths)."""
        return len(self.ids)

    @property
    def tombstones(self) -> int:
        return self._tombstones

    def alive_nodes(self) -> List[Node]:
        """Alive nodes in insertion order (slot order)."""
        return [n for n in self.nodes if n is not None and n.alive]

    def iter_alive_slots(self) -> Iterator[int]:
        """Slots of alive nodes, ascending (= insertion/rank order)."""
        for slot, node in enumerate(self.nodes):
            if node is not None and node.alive:
                yield slot

    # ------------------------------------------------------------------
    # Position refresh
    # ------------------------------------------------------------------
    def refresh_positions(
        self, now: float,
    ) -> Tuple[List[int], List[Tuple[int, float, float]]]:
        """Bring ``xs``/``ys`` up to date with ``now`` for alive nodes.

        Returns ``(alive_slots, moved)``, both in ascending slot order;
        ``moved`` entries are ``(slot, old_x, old_y)`` — the coordinates
        the slot held *before* this refresh, which the topology needs to
        detach the node from its previous grid cell.  A slot is *moved*
        when its coordinates differ from the cached ones (bit-exact
        comparison, mirroring the engine's original position diff).
        Slots whose mobility model is the same ``Stationary`` object as
        last refresh are skipped without reading the model at all;
        the others are read through ``MobilityModel.xy``, which a
        walker serves without building a ``Point``.  Freshly added or
        model-swapped slots always recompute.
        """
        alive: List[int] = []
        moved: List[Tuple[int, float, float]] = []
        xs, ys = self.xs, self.ys
        mobility, static = self._mobility, self._static
        recomputed = 0
        for slot, node in enumerate(self.nodes):
            if node is None or not node.alive:
                continue
            alive.append(slot)
            mob = node.mobility
            if static[slot] and mob is mobility[slot]:
                continue  # provably unchanged: Stationary + same object
            first = mobility[slot] is None
            x, y = mob.xy(now)
            recomputed += 1
            if first or x != xs[slot] or y != ys[slot]:
                if not first:
                    moved.append((slot, xs[slot], ys[slot]))
                xs[slot] = x
                ys[slot] = y
            mobility[slot] = mob
            static[slot] = 1 if isinstance(mob, Stationary) else 0
        self.last_refresh_recomputed = recomputed
        return alive, moved
