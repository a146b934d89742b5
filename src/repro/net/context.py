"""The per-run network context shared by all protocol agents.

Bundles the simulator, topology, transport, hello service and message
accounting, plus two idealized registries every autoconfiguration
protocol needs from its routing substrate:

* ``ip_registry`` — IP -> node id resolution (the ARP/routing analogue);
* the agent table — node id -> protocol agent, used by the substrate to
  deliver messages and by hello queries to ask "is this node a cluster
  head?".

The agent table is a plain dict in registration order, and nothing ever
leaves it: a departed or crashed node keeps its agent, and liveness is
read off the node.  Beside it the context keeps the one fact it answers
role queries from — ``allocator_ids``, which the agent base
(:class:`repro.net.agent.Agent`) keeps current through
:meth:`NetworkContext.note_allocator` — and
``role_epoch``, which the ``note_*`` hooks bump so the derived
per-component head table knows when to rebuild.
"""

from __future__ import annotations

import itertools
from typing import (TYPE_CHECKING, Dict, FrozenSet, Iterator, List,
                    Optional, Set, Tuple)

from repro.net.hello import HelloService
from repro.net.node import Node
from repro.net.stats import MessageStats
from repro.net.topology import Topology
from repro.net.transport import Transport
from repro.obs.bus import EventBus
from repro.perf import Counters, PerfRecorder
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.model import FaultModel
    from repro.faults.spec import FaultSpec
    from repro.net.agent import Agent


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
        #: Bumped on registration and on role, network-id, head-state,
        #: allocator and address-bound transitions — the cheap half of
        #: the component table's cache key (the other half is
        #: ``Topology.graph_version``).
        self.role_epoch = 0
        #: Allocation attempt ids (``PendingConfig.attempt_id``), drawn
        #: by every allocator of the run from 1 up, so identical seeded
        #: runs trace the same ids whatever ran in the process before.
        self.attempt_ids: Iterator[int] = itertools.count(1)
        self.ip_registry: Dict[int, int] = {}  # ip -> node_id
        # Derived view: component id -> (sorted head ids, head network
        # ids, all configured network ids), shared by every agent that
        # asks "does my partition still have allocators" (orphan
        # rescue, isolation re-founding) or "is there anything foreign
        # left to merge with" (merge scan).  One O(n) pass builds it;
        # without the cache each asker walked its own neighborhood or
        # component per scan — O(n^2) per scan round.  Keyed on
        # (graph_version, role_epoch): topology rebuilds bump the
        # former; role, network-id, head-state, and address-bound
        # transitions bump the latter, so every input the table reads
        # is covered and no TTL backstop is needed.
        self._comp_heads_key: Tuple[int, int] = (-1, -1)
        self._comp_heads: Dict[int, Tuple[Tuple[int, ...],
                                          FrozenSet[Optional[int]],
                                          FrozenSet[Optional[int]]]] = {}

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
        self.role_epoch += 1

    def agent_of(self, node_id: int) -> Optional["Agent"]:
        return self.agents.get(node_id)

    def node_of(self, node_id: int) -> Optional[Node]:
        return self.topology.get(node_id)

    # ------------------------------------------------------------------
    # Write-through hooks (called at protocol transition points)
    # ------------------------------------------------------------------
    def note_role(self, node_id: int) -> None:
        """A registered node's role changed."""
        if node_id in self.agents:
            self.role_epoch += 1

    def note_network(self, node_id: int) -> None:
        """A node's network id changed: the component table caches
        which networks still have allocators where."""
        self.role_epoch += 1

    def note_head_state(self, node_id: int) -> None:
        """A node adopted or dropped allocator (head) state, which
        ``is_head`` requires alongside the role, so the flip versions
        the table even before the role write-through happens."""
        self.role_epoch += 1

    def note_allocator(self, node_id: int, allocator: bool) -> None:
        """Record whether a node can currently allocate addresses.

        ``allocator_ids`` *is* the answer to :meth:`is_head` (which only
        adds the liveness check), so an agent calls this whenever what
        its ``is_allocator()`` reads — liveness aside — changes: the
        agent base after every handler, the quorum agent from its role
        and head setters.  Registration starts an agent out of the
        set."""
        self._note_member(self.allocator_ids, node_id, allocator)

    def _note_member(self, ids: Set[int], node_id: int, member: bool) -> None:
        """Put a registered id in or out of ``ids``; only a flip
        versions the component table."""
        if node_id in self.agents and (node_id in ids) != member:
            if member:
                ids.add(node_id)
            else:
                ids.discard(node_id)
            self.role_epoch += 1

    def bound_address_count(self) -> int:
        """Registered agents with an address noted as bound (see
        :meth:`unbind_ip` for why that is not "configured")."""
        return len(self._bound_ids)

    # ------------------------------------------------------------------
    # IP resolution
    # ------------------------------------------------------------------
    def bind_ip(self, ip: int, node_id: int) -> None:
        # A rebind to another address changes neither configured-ness
        # nor head-ness, so only the first address versions the table.
        self.ip_registry[ip] = node_id
        self._note_member(self._bound_ids, node_id, True)

    def unbind_ip(self, ip: int) -> None:
        """Forget ``ip`` and note its node as unbound.

        ``ip_registry`` is keyed by ip alone, so this names whichever
        node bound ``ip`` *last*.  Two networks legitimately hold the
        same address after a re-found (a fresh network restarts at
        address 0); when one of them unbinds, the other node is the one
        noted.  That makes the bound ids an aggregate, not "is
        configured": whoever needs that asks ``agent.is_configured()``."""
        node_id = self.ip_registry.pop(ip, None)
        if node_id is not None:
            self._note_member(self._bound_ids, node_id, False)

    def resolve_ip(self, ip: int) -> Optional[int]:
        return self.ip_registry.get(ip)

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
    _NO_HEADS: Tuple[Tuple[int, ...], FrozenSet[Optional[int]],
                     FrozenSet[Optional[int]]] = ((), frozenset(), frozenset())

    def component_entry(
        self, node_id: int
    ) -> Tuple[Tuple[int, ...], FrozenSet[Optional[int]],
               FrozenSet[Optional[int]]]:
        """``(heads, head_networks, networks)`` of ``node_id``'s
        component in one lookup: the allocator node ids, ascending; the
        network ids that still have an allocator there (empty when the
        component has no heads at all); and the network ids of every
        configured node, heads and commons (``None`` for agents that
        are configured but between networks).  A singleton ``networks``
        equal to the asker's own network means its partition is
        homogeneous: no bounded neighborhood scan can find a foreign
        network id."""
        topology = self.topology
        # Query the labels first: this forces any pending rebuild, so
        # graph_version below reflects the graph being answered about.
        component = topology.component_indices((node_id,))[0]
        if component is None:
            return self._NO_HEADS
        key = (topology.graph_version, self.role_epoch)
        if key != self._comp_heads_key:
            # One pass over the registry: one batched label query for
            # every id, then per agent only what the context does not
            # hold — the node's live ``alive`` flag (kill and restart
            # flip it with no hook) and ``agent.is_configured()`` (the
            # bound ids are not it: see unbind_ip).
            table: Dict[int, Tuple[List[int], Set[Optional[int]],
                                   Set[Optional[int]]]] = {}
            agents = self.agents
            allocator_ids = self.allocator_ids
            node_of = topology.get
            labels = topology.component_indices(agents)
            for comp, (agent_id, agent) in zip(labels, agents.items()):
                if comp is None:
                    continue
                node = node_of(agent_id)
                if (node is None or not node.alive
                        or not agent.is_configured()):
                    continue
                entry = table.get(comp)
                if entry is None:
                    entry = table[comp] = ([], set(), set())
                # ``None`` network ids (configured agents mid-rejoin)
                # stay in the sets on purpose: they make a component
                # look heterogeneous, which keeps the merge scan alive.
                network = agent.network_id
                entry[2].add(network)
                if agent_id in allocator_ids:
                    entry[0].append(agent_id)
                    entry[1].add(network)
            self._comp_heads = {
                comp: (tuple(sorted(heads)), frozenset(hnets),
                       frozenset(nets))
                for comp, (heads, hnets, nets) in table.items()}
            self._comp_heads_key = key
        return self._comp_heads.get(component, self._NO_HEADS)

    def component_heads(self, node_id: int) -> Tuple[int, ...]:
        """Allocator node ids in ``node_id``'s component, ascending.

        O(1) amortized: one O(n) table build per topology rebuild /
        role transition serves every caller in the interval.  The
        pre-label protocol answered this with an unbounded BFS flood
        per asker; the label layer's ``component_members`` walk was
        bounded but still O(component) per asker per scan."""
        return self.component_entry(node_id)[0]

    @classmethod
    def build(
        cls,
        seed: int = 0,
        transmission_range: float = 150.0,
        hello_interval: float = 1.0,
        per_hop_delay: float = 0.01,
        count_hello_cost: bool = False,
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
        hello = HelloService(
            sim, topology, stats, interval=hello_interval,
            count_cost=count_hello_cost,
        )
        return cls(sim, topology, transport, hello, stats,
                   faults=fault_model, perf=perf)
