"""The per-run network context shared by all protocol agents.

Bundles the simulator, topology, transport, hello service and message
accounting, plus two idealized registries every autoconfiguration
protocol needs from its routing substrate:

* ``ip_registry`` — (network id, IP) -> node id resolution (the
  ARP/routing analogue, one per network: two networks hold the same
  addresses after any re-found);
* the agent table — node id -> protocol agent, used by the substrate to
  deliver messages and by hello queries to ask "is this node a cluster
  head?".

The agent table is a plain dict in registration order, and nothing ever
leaves it: a departed or crashed node keeps its agent, and liveness is
read off the node.  Beside it the context keeps the one fact it answers
role queries from — ``allocator_ids``, which the agent base
(:class:`repro.net.agent.Agent`) keeps current through
:meth:`NetworkContext.note_allocator` — and the per-component table of
heads and network ids (:meth:`NetworkContext.component_entry`).

The table is kept node by node.  Every hook names the node whose state
moved, and the topology's label journal names the nodes whose component
label moved; a lookup re-reads only those agents, and only a journal the
topology lost (the first relabel, a compaction) makes it re-read them
all.  So an agent notes its *own* transitions, and liveness is read
where the graph moves: every write of ``node.alive`` is followed, in the
same call, by ``Topology.invalidate_nodes`` or
``Topology.remove_node``.

The periodic checks park their timers here, and the writer that
changes what a parked check read wakes it.  The wake table (the agent
wakes its own checks for its own state):

* merge scan (:meth:`NetworkContext.park_on_entry`): a patch that
  changes its entry's sets, its node crashing in place;
* head audit (:meth:`NetworkContext.park_audit`): any graph change or
  :meth:`NetworkContext.note`;
* location check (:meth:`NetworkContext.park_location`): a lost slot in
  its component, a label move of its node, its anchor's allocator flip.

:meth:`NetworkContext.table_current` is the simulator's park gate.
"""

from __future__ import annotations

import itertools
from typing import (TYPE_CHECKING, Collection, Dict, FrozenSet,
                    Iterable, Iterator, List, Optional, Set, Tuple)

from repro.net.hello import HelloService
from repro.net.node import Node
from repro.net.stats import MessageStats
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.obs.bus import EventBus
from repro.perf import Counters, PerfRecorder
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.model import FaultModel
    from repro.faults.spec import FaultSpec
    from repro.net.agent import Agent


#: A component table entry: (head ids ascending, head network ids,
#: configured network ids); see :meth:`NetworkContext.component_entry`.
_Entry = Tuple[Tuple[int, ...], FrozenSet[Optional[int]],
               FrozenSet[Optional[int]]]
#: One component's tallies: head ids, per network id the number of
#: heads and of configured nodes carrying it, and the counted ids.
_Tally = Tuple[Set[int], Dict[Optional[int], int], Dict[Optional[int], int],
               Set[int]]
#: Where a counted agent was counted: its network id and its component.
_Counted = Tuple[Optional[int], int]


def _uncount(tally: _Tally, node_id: int, network: Optional[int]) -> None:
    """Take one agent's contribution back out of ``tally``: its place
    among the counted ids, the network id it was counted under, and
    head-ness if it is among the tally's heads."""
    heads, head_networks, networks, members = tally
    members.discard(node_id)
    _decrement(networks, network)
    if node_id in heads:
        heads.discard(node_id)
        _decrement(head_networks, network)


def _decrement(counts: Dict[Optional[int], int],
               network: Optional[int]) -> None:
    left = counts[network] - 1
    if left:
        counts[network] = left
    else:
        del counts[network]


class NetworkContext:
    """Everything a protocol agent needs to talk to the world."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        transport: Transport,
        hello: HelloService,
        stats: MessageStats,
        faults: Optional["FaultModel"] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.transport = transport
        self.hello = hello
        self.stats = stats
        self.faults = faults
        # One perf recorder per run: topology/transport counters and
        # timers accumulate here (defaults to the topology's recorder).
        self.perf: PerfRecorder = (
            perf if perf is not None else topology.perf)
        # Protocol/fault event tallies (quorum shrinks, probes,
        # reclamations, crashes, ...) — the observability companion to
        # the per-category hop counters in ``stats``.
        self.events: Counters = (
            faults.events if faults is not None else Counters())
        # The run's event bus, shared with the transport: protocol
        # layers emit structured events here (falsy while nobody
        # subscribes — emission sites gate on that; see repro.obs).
        self.obs: EventBus = transport.obs
        #: node id -> agent, in registration order.  Read-only outside
        #: :meth:`register`.
        self.agents: Dict[int, "Agent"] = {}
        #: Ids of the registered agents that can allocate — their
        #: ``is_allocator()`` with liveness left out.  :meth:`is_head`
        #: answers from it and head scans probe it before they ask, so
        #: every agent writes it through (see :meth:`note_allocator`).
        #: Read-only outside the context.
        self.allocator_ids: Set[int] = set()
        # Registered ids ``bind_ip`` / ``unbind_ip`` last resolved to
        # bound.  Not "is configured": see :meth:`unbind_ip`.
        self._bound_ids: Set[int] = set()
        #: Allocation attempt ids (``PendingConfig.attempt_id``), drawn
        #: by every allocator of the run from 1 up, so identical seeded
        #: runs trace the same ids whatever ran in the process before.
        self.attempt_ids: Iterator[int] = itertools.count(1)
        # (network id, ip) -> node id.
        self.ip_registry: Dict[Tuple[Optional[int], int], int] = {}
        # Derived view: component index -> (sorted head ids, head
        # network ids, all configured network ids), shared by every
        # agent that asks "does my partition still have allocators"
        # (orphan rescue, isolation re-founding) or "is there anything
        # foreign left to merge with" (merge scan).  Kept node by node:
        # ``_comp_counts`` holds each component's tallies (its heads,
        # and per network id how many heads and how many configured
        # nodes carry it), ``_counted`` the network id and component
        # each counted agent was counted under, and ``_dirty`` the ids
        # noted since the last patch (see :meth:`_patch_table`).
        self._dirty: Set[int] = set()
        self._counted: Dict[int, _Counted] = {}
        self._comp_counts: Dict[int, _Tally] = {}
        self._comp_heads: Dict[int, _Entry] = {}
        # node id -> its parked poll's timer, per poll, and the anchor its
        # location check parked on; the graph version audits parked on.
        self._entry_parks: Dict[int, PeriodicTimer] = {}
        self._audit_parks: Dict[int, PeriodicTimer] = {}
        self._location_parks: Dict[int, PeriodicTimer] = {}
        self._anchors: Dict[int, int] = {}
        self._audit_version = topology.graph_version
        sim.park_gate = self.table_current

    # ------------------------------------------------------------------
    # Agent registry
    # ------------------------------------------------------------------
    def register(self, agent: "Agent") -> None:
        """Add ``agent`` under its node's id.  Registering an id again
        replaces the agent where it stands (dict assignment keeps the
        position) and starts what the context holds about it over."""
        node_id = int(agent.node.node_id)
        self.agents[node_id] = agent
        self.allocator_ids.discard(node_id)
        if agent.ip is None:
            self._bound_ids.discard(node_id)
        else:
            self._bound_ids.add(node_id)
        self.note(node_id)

    def agent_of(self, node_id: int) -> Optional["Agent"]:
        return self.agents.get(node_id)

    def node_of(self, node_id: int) -> Optional[Node]:
        return self.topology.get(node_id)

    # ------------------------------------------------------------------
    # Write-through hooks (called at protocol transition points)
    # ------------------------------------------------------------------
    def note(self, node_id: int) -> None:
        """A registered node's role, network id or head state changed:
        mark the node for the component table's next patch and wake the
        parked audits.  Every other hook notes through here too.  Ids
        that never registered are ignored."""
        if node_id in self.agents:
            self._dirty.add(node_id)
            if self._audit_parks:
                self._wake(self._audit_parks, list(self._audit_parks))

    def note_allocator(self, node_id: int, allocator: bool) -> None:
        """Record whether a node can currently allocate addresses.

        ``allocator_ids`` *is* the answer to :meth:`is_head` (which only
        adds the liveness check), so an agent calls this whenever what
        its ``is_allocator()`` reads — liveness aside — changes: the
        agent base when the agent configures and leaves, Buddy and C-tree
        where a pool changes, the quorum agent from its role and head
        setters.  Registration starts an agent out of the set.  A flip
        wakes the location checks parked on the node as their anchor."""
        if (node_id in self.allocator_ids) != allocator:
            self._wake(self._location_parks, [
                parked for parked, anchor in self._anchors.items()
                if anchor == node_id])
        self._note_member(self.allocator_ids, node_id, allocator)

    def _note_member(self, ids: Set[int], node_id: int, member: bool) -> None:
        """Put a registered id in or out of ``ids``; only a flip is
        noted."""
        if node_id in self.agents and (node_id in ids) != member:
            if member:
                ids.add(node_id)
            else:
                ids.discard(node_id)
            self.note(node_id)

    def bound_address_count(self) -> int:
        """Registered agents with an address noted as bound (see
        :meth:`unbind_ip` for why that is not "configured")."""
        return len(self._bound_ids)

    # ------------------------------------------------------------------
    # IP resolution
    # ------------------------------------------------------------------
    def bind_ip(self, network_id: Optional[int], ip: int,
                node_id: int) -> None:
        # A rebind to another address changes neither configured-ness
        # nor head-ness, so only the first address is noted.
        self.ip_registry[network_id, ip] = node_id
        self._note_member(self._bound_ids, node_id, True)

    def unbind_ip(self, network_id: Optional[int], ip: int) -> None:
        """Forget ``ip`` in ``network_id`` and note its node as
        unbound.  The bound ids are an aggregate, not "is configured":
        whoever needs that asks ``agent.is_configured()``, and the
        component table does not rely on this note to learn of the
        giver's change — the agent notes its own transition too (the
        quorum agent's role and network-id setters)."""
        node_id = self.ip_registry.pop((network_id, ip), None)
        if node_id is not None:
            self._note_member(self._bound_ids, node_id, False)

    def resolve_ip(self, network_id: Optional[int], ip: int) -> Optional[int]:
        """The node that answers for ``ip`` in ``network_id``."""
        return self.ip_registry.get((network_id, ip))

    # ------------------------------------------------------------------
    # Role queries (used by hello-derived knowledge)
    # ------------------------------------------------------------------
    def is_head(self, node_id: int) -> bool:
        # The agent's ``is_allocator()``: the written-through half
        # (see note_allocator), then liveness, read live.
        if node_id not in self.allocator_ids:
            return False
        node = self.topology.get(node_id)
        return node is not None and node.alive

    def is_configured(self, node_id: int) -> bool:
        agent = self.agents.get(node_id)
        node = self.topology.get(node_id)
        if agent is None or node is None or not node.alive:
            return False
        return bool(agent.is_configured())

    # ------------------------------------------------------------------
    # Component-level role queries (connectivity labels + the registry)
    # ------------------------------------------------------------------
    _NO_HEADS: _Entry = ((), frozenset(), frozenset())

    def component_entry(self, node_id: int) -> _Entry:
        """``(heads, head_networks, networks)`` of ``node_id``'s
        component in one lookup: the allocator node ids, ascending; the
        network ids that still have an allocator there (empty when the
        component has no heads at all); and the network ids of every
        configured node, heads and commons (``None`` for agents that
        are configured but between networks).  A singleton ``networks``
        equal to the asker's own network means its partition is
        homogeneous: no bounded neighborhood scan can find a foreign
        network id."""
        # Query the labels first: this forces any pending rebuild, so
        # the patch below reads the graph being answered about.
        component = self.topology.component_indices((node_id,))[0]
        if component is None:
            return self._NO_HEADS
        self._patch_table()
        return self._comp_heads.get(component, self._NO_HEADS)

    def component_heads(self, node_id: int) -> Tuple[int, ...]:
        """Allocator node ids in ``node_id``'s component, ascending.

        O(1) amortized: a lookup re-reads only the agents noted or
        relabeled since the last one, plus every agent once per journal
        the topology lost.  The
        pre-label protocol answered this with an unbounded BFS flood
        per asker; the label layer's ``component_members`` walk was
        bounded but still O(component) per asker per scan."""
        return self.component_entry(node_id)[0]

    def table_current(self) -> bool:
        """Whether the component table serves the current graph: False
        while the graph is due a refresh or its labels are not current
        (:meth:`~repro.net.topology.Topology.labels_current`), else
        True once the table is patched up to every note and label move
        so far.  Passive on the graph: it refreshes and relabels
        nothing.  The simulator's park gate."""
        if not self.topology.labels_current():
            return False
        self._patch_table()
        return True

    def park_on_entry(self, node_id: int, timer: PeriodicTimer) -> None:
        """Park ``timer`` (see :meth:`~repro.sim.timers.PeriodicTimer.park`)
        on the head-network and network sets of ``node_id``'s entry, as
        a :meth:`component_entry` lookup of this graph just read them:
        a stale graph ends the park, and so does the patch that finds
        them changed.  That patch wakes the timer when

        * the entry of the node's component changes either set;
        * the node is counted under another component, whose entry has
          other sets than the one it was counted under before;
        * the node leaves the graph while it is still in the store (a
          crash in place: the agent's timers keep running);
        * the table starts over (:meth:`_patch_table`).

        The park holds across graph changes elsewhere.  Whatever else
        the timer's check read is the caller's to unpark on."""
        self._entry_parks[node_id] = timer
        timer.park()

    def park_audit(self, node_id: int, timer: PeriodicTimer) -> None:
        """Park ``node_id``'s head audit, which read the graph and other
        heads' roles and network ids: the next graph change or
        :meth:`note` anywhere wakes it."""
        self._sync_audits()
        self._audit_parks[node_id] = timer
        timer.park()

    def park_location(self, node_id: int, anchor: int,
                      timer: PeriodicTimer) -> None:
        """Park ``node_id``'s location check on its verdict that the
        head ``anchor`` is within three hops, which holds until the
        component loses a slot, the node's label moves, or ``anchor``
        stops allocating."""
        self._location_parks[node_id] = timer
        self._anchors[node_id] = anchor
        timer.park()

    def _sync_audits(self) -> None:
        """Wake the parked audits if the graph changed since they read
        it."""
        version = self.topology.graph_version
        if version != self._audit_version:
            self._audit_version = version
            self._wake(self._audit_parks, list(self._audit_parks))

    @staticmethod
    def _wake(parks: Dict[int, PeriodicTimer],
              node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            timer = parks.pop(node_id, None)
            if timer is not None:
                timer.unpark()

    def _patch_table(self) -> None:
        """Bring the component table up to the current labels and every
        note so far: the one routine that builds it.

        Each agent that was noted or whose label moved (the topology's
        label journal) is re-tallied: its old contribution leaves the
        component it was counted under, and its new one, read from the
        agent (``is_configured``, ``network_id``), the allocator set
        and ``node.alive``, joins its component now; only those
        components are frozen again.  Every other agent keeps its label
        and its tally.  When the topology lost the journal the tallies
        start from nothing and everyone is re-read.  Callers have just
        made sure the graph and labels are current, so the one batched
        label question below refreshes nothing.

        The patch also wakes the entry parks (:meth:`park_on_entry`)
        whose sets it changed, and reads the topology's journals for
        the location parks (:meth:`park_location`); starting over wakes
        them all."""
        topology = self.topology
        dirty = self._dirty
        self._sync_audits()
        removed = topology.take_removals()
        moved = topology.take_moved_labels()
        parks = self._location_parks
        self._wake(parks, list(parks) if removed is None or moved is None
                   else moved)
        if moved is not None and not moved and not dirty:
            return
        agents = self.agents
        entries = self._comp_heads
        counted = self._counted
        counts = self._comp_counts
        entry_parks = self._entry_parks
        wake = self._wake
        ids: Collection[int]
        if moved is None:
            counted.clear()
            counts.clear()
            entries.clear()
            ids = list(agents)              # everyone is dirty
            wake(entry_parks, list(entry_parks))
        elif moved:
            ids = dirty.union(node_id for node_id in moved
                              if node_id in agents)
        else:
            ids = list(dirty)
        dirty.clear()
        labels = topology.component_indices(ids)
        allocator_ids = self.allocator_ids
        node_of = topology.get
        # The components to freeze again: the re-read agents' old and
        # new ones.
        touched = {comp for comp in labels if comp is not None}
        # Agents counted under another component than before: (id, old
        # component, new component).
        crossed: List[Tuple[int, int, int]] = []
        for node_id, comp in zip(ids, labels):
            was = counted.pop(node_id, None)
            if was is not None:
                touched.add(was[1])
                _uncount(counts[was[1]], node_id, was[0])
            if comp is None:
                # Out of the graph, so not counted in it.  A node still
                # in the store crashed in place: its polls run on.
                if was is not None and node_of(node_id) is not None:
                    wake(entry_parks, (node_id,))
                continue
            node = node_of(node_id)
            agent = agents[node_id]
            if node is None or not node.alive or not agent.is_configured():
                continue
            if was is not None and was[1] != comp:
                crossed.append((node_id, was[1], comp))
            tally = counts.get(comp)
            if tally is None:
                tally = counts[comp] = (set(), {}, {}, set())
            # ``None`` network ids (configured agents mid-rejoin) are
            # counted on purpose: they make a component look
            # heterogeneous, which keeps the merge scan alive.
            network = agent.network_id
            counted[node_id] = (network, comp)
            networks = tally[2]
            networks[network] = networks.get(network, 0) + 1
            tally[3].add(node_id)
            if node_id in allocator_ids:
                tally[0].add(node_id)
                head_networks = tally[1]
                head_networks[network] = head_networks.get(network, 0) + 1
        no_heads = self._NO_HEADS
        before: Dict[int, _Entry] = {}
        for comp in touched:
            old = before[comp] = entries.get(comp, no_heads)
            tally = counts.get(comp)
            if tally is not None and tally[2]:
                heads, head_networks, networks, members = tally
                entry = entries[comp] = (tuple(sorted(heads)),
                                         frozenset(head_networks),
                                         frozenset(networks))
                if entry[1] != old[1] or entry[2] != old[2]:
                    wake(entry_parks, members)
            else:
                counts.pop(comp, None)
                entries.pop(comp, None)
        for node_id, was_comp, comp in crossed:
            old = before[was_comp]
            entry = entries[comp]
            if entry[1] != old[1] or entry[2] != old[2]:
                wake(entry_parks, (node_id,))
        if removed:
            # Counted under a component that lost a slot (its label did
            # not move, or it woke above), or not counted at all.
            wake(parks, [node_id for node_id in parks
                         if counted.get(node_id, (None, None))[1] in removed
                         or node_id not in counted])

    @classmethod
    def build(
        cls,
        seed: int = 0,
        transmission_range: float = 150.0,
        per_hop_delay: float = 0.01,
        faults: Optional["FaultSpec"] = None,
    ) -> "NetworkContext":
        """Construct a fully wired context with fresh components.

        ``faults`` (a :class:`~repro.faults.spec.FaultSpec`) attaches a
        fault model to the transport and schedules its crash/partition
        events; ``None`` keeps the transport perfectly reliable.
        """
        sim = Simulator(seed=seed)
        stats = MessageStats()
        perf = PerfRecorder()
        topology = Topology(sim, transmission_range, perf=perf)
        fault_model = None
        if faults is not None:
            from repro.faults.model import FaultModel

            fault_model = FaultModel(faults, sim, topology)
            fault_model.install()
        transport = Transport(sim, topology, stats, per_hop_delay,
                              faults=fault_model, perf=perf)
        return cls(sim, topology, transport, HelloService(topology), stats,
                   faults=fault_model, perf=perf)
