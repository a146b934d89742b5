"""Struct-of-arrays agent state (the scale layer's protocol half).

:class:`~repro.net.store.NodeStore` gave the *engine* (positions,
liveness, the spatial grid) an array-backed layout; agents were still
one Python object per node behind a plain dict.  That is fine for the
object-graph parts of the protocol — handlers, per-attempt state — but
the question every head scan asks ("who can allocate?") walked ``n``
heterogeneous objects and a method call each, and the registry itself
kept dict overhead per node.

:class:`AgentStore` mirrors the NodeStore discipline for the agent
registry:

* **Slots.**  Every registered agent gets a monotonically increasing
  *slot*; parallel arrays hold the denormalized columns the protocol
  reads — the allocator byte and the bound address — and the agent
  object itself.  Slot order is insertion order and compaction
  preserves it, so iteration (``items()``) replays the registration
  order exactly like the dict it replaces.

* **Write-through columns, authoritative objects.**  The protocol and
  the context push column updates at the natural transition points
  (allocator flips, ``bind_ip``/``unbind_ip``) via the ``note_*``
  methods; the remaining ``note_*`` hooks keep no column and only
  version the derived head tables (``role_epoch``).  The agent object
  remains the authority; what the obs layer samples about roles,
  QDSets and vote timers it reads off the agents themselves
  (:func:`repro.obs.metrics.sample_gauges`).  One column is
  load-bearing: ``is_head`` answers from the allocator byte alone, so
  :meth:`AgentStore.note_allocator` is an obligation on every agent
  type, and ``allocator_ids`` — the ids whose byte is set — is the
  candidate set head scans probe before they run the predicate.
  ``is_configured`` still asks the agent: the address column cannot
  answer it (see :meth:`AgentStore.note_address`).

* **Tombstoned eviction + compaction.**  ``evict`` clears a slot in
  O(1); once tombstones exceed half the slot space (same
  :data:`~repro.net.store.COMPACT_TOMBSTONE_FRACTION` /
  :data:`~repro.net.store.COMPACT_MIN_SLOTS` policy as the node store)
  the arrays are rebuilt without them and ``layout_version`` is bumped
  so anything holding slot references knows to re-resolve.  Long churn
  scenarios stay O(live registrations).

The mapping surface (``get`` / ``items`` / ``values`` / ``pop`` /
``in`` / ``len`` / iteration) is drop-in for the dict that
:class:`~repro.net.context.NetworkContext` used to hold, so existing
callers — the runner's ``sorted(ctx.agents.items())``, the baselines'
registry scans — run unchanged.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.net.store import COMPACT_MIN_SLOTS, COMPACT_TOMBSTONE_FRACTION

#: ``addresses`` column sentinel: no address bound to this agent.
NO_ADDRESS = -1


class AgentStore:
    """Array-backed agent registry, indexed by slot.

    The public surface is two-layered: the dict-compatible registry
    (what :class:`~repro.net.context.NetworkContext` exposes as
    ``ctx.agents``) and the denormalized columns with their ``note_*``
    write-through hooks and aggregate readers.
    """

    def __init__(self) -> None:
        # slot -> ... parallel arrays.  A tombstoned slot keeps its
        # array entries (agent=None marks it dead) until compaction.
        self.ids: List[int] = []
        self.agents: List[Optional[Any]] = []
        #: slot -> 1 while the agent can allocate (its ``is_allocator()``
        #: with liveness left out), else 0.
        self.allocators: bytearray = bytearray()
        #: The node ids whose allocator byte is 1: the candidate
        #: superset head scans probe before running ``is_head`` (which
        #: adds the live liveness check).  Read-only outside the store;
        #: written with the byte, by its only three writers
        #: (:meth:`note_allocator`, :meth:`_snapshot`, :meth:`evict` —
        #: compaction renumbers slots, not ids).
        self.allocator_ids: Set[int] = set()
        #: slot -> the address most recently noted for this agent, or
        #: :data:`NO_ADDRESS`.  Not "is configured": see
        #: :meth:`note_address`.
        self.addresses: array = array("q")
        self.slot_of: Dict[int, int] = {}
        self._tombstones = 0
        #: Bumped whenever slot numbering changes (compaction).  Slot
        #: references held outside the store are invalid across bumps.
        self.layout_version = 0
        #: Bumped on membership, role/network-id, head-state, and
        #: address-bound transitions — the cheap half of the cache key
        #: for derived protocol views (the other half is
        #: ``Topology.graph_version``; see
        #: :meth:`~repro.net.context.NetworkContext.component_heads`).
        self.role_epoch = 0

    # ------------------------------------------------------------------
    # Registration (population management)
    # ------------------------------------------------------------------
    def add(self, agent: Any) -> int:
        """Register ``agent``, returning its slot.

        Re-registering an id replaces the agent in place (dict
        semantics — the registry held ``agents[id] = agent``), keeping
        the original slot and re-snapshotting the columns.
        """
        node_id = int(agent.node.node_id)
        self.role_epoch += 1
        slot = self.slot_of.get(node_id)
        if slot is not None:
            self.agents[slot] = agent
            self._snapshot(slot, agent)
            return slot
        slot = len(self.ids)
        self.ids.append(node_id)
        self.agents.append(agent)
        self.allocators.append(0)
        self.addresses.append(NO_ADDRESS)
        self.slot_of[node_id] = slot
        self._snapshot(slot, agent)
        return slot

    def _snapshot(self, slot: int, agent: Any) -> None:
        """Initialize the columns from whatever the agent already has."""
        self.allocators[slot] = 0
        self.allocator_ids.discard(self.ids[slot])
        ip = getattr(agent, "ip", None)
        self.addresses[slot] = NO_ADDRESS if ip is None else int(ip)

    def evict(self, node_id: int) -> bool:
        """Tombstone ``node_id``'s slot; True if it was present."""
        slot = self.slot_of.pop(node_id, None)
        if slot is None:
            return False
        self.agents[slot] = None
        self.allocators[slot] = 0
        self.allocator_ids.discard(node_id)
        self.addresses[slot] = NO_ADDRESS
        self._tombstones += 1
        self.role_epoch += 1
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
        keep = [s for s, agent in enumerate(self.agents) if agent is not None]
        self.ids = [self.ids[s] for s in keep]
        self.agents = [self.agents[s] for s in keep]
        self.allocators = bytearray(self.allocators[s] for s in keep)
        self.addresses = array("q", (self.addresses[s] for s in keep))
        self.slot_of = {nid: s for s, nid in enumerate(self.ids)}
        self._tombstones = 0
        self.layout_version += 1

    @property
    def capacity(self) -> int:
        """Slot-space size including tombstones (array lengths)."""
        return len(self.ids)

    @property
    def tombstones(self) -> int:
        return self._tombstones

    # ------------------------------------------------------------------
    # Dict-compatible registry surface (what ctx.agents callers use)
    # ------------------------------------------------------------------
    def get(self, node_id: int, default: Any = None) -> Any:
        slot = self.slot_of.get(node_id)
        return self.agents[slot] if slot is not None else default

    def pop(self, node_id: int, default: Any = None) -> Any:
        slot = self.slot_of.get(node_id)
        if slot is None:
            return default
        agent = self.agents[slot]
        self.evict(node_id)
        return agent

    def __getitem__(self, node_id: int) -> Any:
        slot = self.slot_of.get(node_id)
        if slot is None:
            raise KeyError(node_id)
        return self.agents[slot]

    def __setitem__(self, node_id: int, agent: Any) -> None:
        if int(agent.node.node_id) != node_id:
            raise ValueError(
                f"agent for node {agent.node.node_id} registered "
                f"under id {node_id}")
        self.add(agent)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.slot_of

    def __len__(self) -> int:
        return len(self.slot_of)

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys())

    def keys(self) -> List[int]:
        """Registered node ids in insertion (slot) order."""
        return [nid for nid, agent in zip(self.ids, self.agents)
                if agent is not None]

    def values(self) -> List[Any]:
        return [agent for agent in self.agents if agent is not None]

    def items(self) -> List[Tuple[int, Any]]:
        return [(nid, agent) for nid, agent in zip(self.ids, self.agents)
                if agent is not None]

    # ------------------------------------------------------------------
    # Column write-through (called at protocol transition points)
    # ------------------------------------------------------------------
    def note_role(self, node_id: int) -> None:
        """Record that a registered node's role changed (no column is
        kept; the hook versions the derived head tables)."""
        if node_id in self.slot_of:
            self.role_epoch += 1

    def note_network(self, node_id: int, network_id: Optional[int]) -> None:
        """Record that a node's network id changed.

        No column is kept for network ids (nothing aggregates over
        them); the hook exists to version the derived per-component
        head tables, which cache which networks still have allocators
        where."""
        self.role_epoch += 1

    def note_head_state(self, node_id: int) -> None:
        """Record that a node adopted or dropped allocator (head) state.

        ``is_head`` requires the head state alongside the role code, so
        the flip versions the derived per-component head tables even
        when the role write-through has not happened yet."""
        self.role_epoch += 1

    def note_allocator(self, node_id: int, allocator: bool) -> None:
        """Record whether a node can currently allocate addresses.

        The column *is* the answer to
        :meth:`~repro.net.context.NetworkContext.is_head` (which only
        adds the liveness check), so every agent type must call this
        whenever what its ``is_allocator()`` reads — liveness aside —
        changes.  A flip versions the derived head tables."""
        slot = self.slot_of.get(node_id)
        if slot is not None and self.allocators[slot] != allocator:
            self.allocators[slot] = allocator
            if allocator:
                self.allocator_ids.add(node_id)
            else:
                self.allocator_ids.discard(node_id)
            self.role_epoch += 1

    def note_address(self, node_id: int, address: Optional[int]) -> None:
        """Record the address ``bind_ip`` / ``unbind_ip`` resolved to
        ``node_id``.

        The column is an aggregate surface, not "is configured":
        ``NetworkContext.ip_registry`` is keyed by ip alone, so
        ``unbind_ip(ip)`` clears the column of whichever node bound
        that ip *last*.  Two networks legitimately hold the same
        address after a re-found (a fresh network restarts at address
        0); when one of them unbinds, the other node's column is the
        one cleared, and this hook names the wrong node.  Whoever needs
        configured-ness asks ``agent.is_configured()``."""
        slot = self.slot_of.get(node_id)
        if slot is not None:
            new = NO_ADDRESS if address is None else int(address)
            # Configured-ness feeds the derived per-component head
            # tables; version them when bound-ness flips (a rebind to
            # a different address changes neither configured-ness nor
            # head-ness, so it does not).
            if (self.addresses[slot] == NO_ADDRESS) != (new == NO_ADDRESS):
                self.role_epoch += 1
            self.addresses[slot] = new

    # ------------------------------------------------------------------
    # Column readers (aggregates without touching agent objects)
    # ------------------------------------------------------------------
    def address_of(self, node_id: int) -> Optional[int]:
        slot = self.slot_of.get(node_id)
        if slot is None:
            return None
        address = self.addresses[slot]
        return None if address == NO_ADDRESS else address

    def bound_address_count(self) -> int:
        """Agents with an address bound (column scan, no method calls)."""
        addresses = self.addresses
        return sum(
            1 for slot, agent in enumerate(self.agents)
            if agent is not None and addresses[slot] != NO_ADDRESS)
