"""Unit tests for the shared network context."""

import re

import pytest

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Node
from repro.net.context import NetworkContext


class FakeAgent:
    def __init__(self, ctx, node, allocator=False, configured=False,
                 network_id=None):
        self.ctx = ctx
        self.node = node
        self._configured = configured
        self.network_id = network_id
        node.agent = self
        ctx.register(self)
        self.allocator = allocator

    @property
    def allocator(self):
        return self._allocator

    @allocator.setter
    def allocator(self, value):
        # The write-through every agent type owes the registry:
        # ``ctx.is_head`` answers from ``allocator_ids`` alone.
        self._allocator = value
        self.ctx.note_allocator(self.node.node_id, value)

    def is_allocator(self):
        return self._allocator and self.node.alive

    def is_configured(self):
        return self._configured


def make_ctx():
    return NetworkContext.build(seed=1, transmission_range=150.0)


def add(ctx, node_id, allocator=False, configured=False, network_id=None,
        x=None):
    node = Node(node_id, Stationary(
        Point(node_id * 50.0 if x is None else x, 0)))
    ctx.topology.add_node(node)
    return FakeAgent(ctx, node, allocator, configured, network_id)


def head_networks(ctx, node_id):
    """Network ids that still have an allocator in the component."""
    return ctx.component_entry(node_id)[1]


def networks(ctx, node_id):
    """Network ids of every configured node in the component."""
    return ctx.component_entry(node_id)[2]


def test_register_and_lookup():
    ctx = make_ctx()
    agent = add(ctx, 1)
    assert ctx.agent_of(1) is agent
    assert ctx.node_of(1) is agent.node
    assert ctx.agent_of(99) is None


def test_ip_registry():
    ctx = make_ctx()
    add(ctx, 1)
    ctx.bind_ip(42, 1)
    assert ctx.resolve_ip(42) == 1
    ctx.unbind_ip(42)
    assert ctx.resolve_ip(42) is None


def test_is_head_requires_alive_allocator():
    ctx = make_ctx()
    agent = add(ctx, 1, allocator=True)
    assert ctx.is_head(1)
    agent.node.kill()
    assert not ctx.is_head(1)
    assert not ctx.is_head(99)


def test_is_configured():
    ctx = make_ctx()
    add(ctx, 1, configured=True)
    add(ctx, 2, configured=False)
    assert ctx.is_configured(1)
    assert not ctx.is_configured(2)


def test_build_wires_components():
    ctx = make_ctx()
    assert ctx.transport.topology is ctx.topology
    assert ctx.transport.stats is ctx.stats
    assert ctx.hello.topology is ctx.topology


def test_component_heads_sorted_and_configured_only():
    ctx = make_ctx()
    add(ctx, 3, allocator=True, configured=True, network_id=7)
    add(ctx, 1, allocator=True, configured=True, network_id=7)
    add(ctx, 2, configured=True, network_id=7)
    add(ctx, 4, configured=False)  # unconfigured: invisible to the table
    assert ctx.component_heads(2) == (1, 3)
    assert head_networks(ctx, 2) == frozenset({7})
    assert networks(ctx, 2) == frozenset({7})


def test_component_networks_include_commons_not_just_heads():
    ctx = make_ctx()
    add(ctx, 1, allocator=True, configured=True, network_id=7)
    # A configured common carrying a foreign network id (mid-merge).
    add(ctx, 2, configured=True, network_id=9)
    assert head_networks(ctx, 1) == frozenset({7})
    assert networks(ctx, 1) == frozenset({7, 9})


def test_component_tables_are_per_component():
    ctx = make_ctx()
    # Two clusters separated by far more than the 150 m range.
    add(ctx, 1, allocator=True, configured=True, network_id=7, x=0.0)
    add(ctx, 2, configured=True, network_id=7, x=100.0)
    add(ctx, 11, allocator=True, configured=True, network_id=8, x=5000.0)
    add(ctx, 12, configured=True, network_id=8, x=5100.0)
    assert ctx.component_heads(2) == (1,)
    assert ctx.component_heads(12) == (11,)
    assert networks(ctx, 2) == frozenset({7})
    assert networks(ctx, 12) == frozenset({8})
    # Unknown node: conservative empty answers.
    assert ctx.component_heads(99) == ()
    assert head_networks(ctx, 99) == frozenset()
    assert networks(ctx, 99) == frozenset()


def test_component_tables_refresh_on_role_transition():
    ctx = make_ctx()
    head = add(ctx, 1, allocator=True, configured=True, network_id=7)
    add(ctx, 2, configured=True, network_id=7)
    assert ctx.component_heads(2) == (1,)
    # Demote the head through the write-through hook: the epoch bump
    # must invalidate the cached table without any clock advance.
    head.allocator = False
    ctx.note_role(1)
    assert ctx.component_heads(2) == ()
    assert head_networks(ctx, 2) == frozenset()


def test_component_tables_refresh_on_network_transition():
    ctx = make_ctx()
    head = add(ctx, 1, allocator=True, configured=True, network_id=7)
    add(ctx, 2, configured=True, network_id=7)
    assert head_networks(ctx, 2) == frozenset({7})
    head.network_id = 9
    ctx.note_network(1)
    assert head_networks(ctx, 2) == frozenset({9})
    assert networks(ctx, 2) == frozenset({7, 9})


def test_component_tables_refresh_on_topology_split():
    ctx = make_ctx()
    # A 1 -- 2 -- 3 chain where 2 bridges the ends.
    add(ctx, 1, allocator=True, configured=True, network_id=7, x=0.0)
    bridge = add(ctx, 2, configured=True, network_id=7, x=100.0)
    add(ctx, 3, configured=True, network_id=7, x=200.0)
    assert ctx.component_heads(3) == (1,)
    bridge.node.kill()
    ctx.topology.invalidate_nodes([2])
    # 3 is now cut off from the head; 1 still sees itself.
    assert ctx.component_heads(3) == ()
    assert ctx.component_heads(1) == (1,)


def test_component_tables_refresh_on_head_state_transition():
    ctx = make_ctx()
    head = add(ctx, 1, allocator=True, configured=True, network_id=7)
    add(ctx, 2, configured=True, network_id=7)
    assert ctx.component_heads(2) == (1,)
    # Dropping head state without a role transition still goes through
    # the write-through hook, which must invalidate the cached table.
    head.allocator = False
    ctx.note_head_state(1)
    assert ctx.component_heads(2) == ()


def test_component_tables_refresh_when_address_bound_ness_flips():
    ctx = make_ctx()
    add(ctx, 1, allocator=True, configured=True, network_id=7)
    agent = add(ctx, 2, configured=False, network_id=None)
    assert networks(ctx, 1) == frozenset({7})
    # Binding an IP flips bound-ness, which versions the table.
    agent._configured = True
    agent.network_id = 9
    ctx.bind_ip(42, 2)
    assert networks(ctx, 1) == frozenset({7, 9})
    # Unbinding flips it back — again through the hook.
    agent._configured = False
    ctx.unbind_ip(42)
    assert networks(ctx, 1) == frozenset({7})


def test_rebinding_to_a_new_address_does_not_version_the_tables():
    ctx = make_ctx()
    add(ctx, 1, configured=True, network_id=7)
    ctx.bind_ip(42, 1)
    epoch = ctx.role_epoch
    # Same bound-ness, different address: configured-ness and head-ness
    # are unchanged, so the derived tables stay valid.
    ctx.bind_ip(43, 1)
    assert ctx.role_epoch == epoch
    ctx.unbind_ip(43)
    assert ctx.role_epoch == epoch + 1


# ---------------------------------------------------------------------------
# The one-pass component table against the per-node loop it replaced
# ---------------------------------------------------------------------------
NO_HEADS = ((), frozenset(), frozenset())


def reference_table(ctx):
    """The component table as ``component_entry`` built it before the
    one-pass rebuild: every registered agent put to ``is_configured``,
    ``component_id`` and ``is_head`` in turn.  Keyed by the public
    component id."""
    topology = ctx.topology
    table = {}
    for nid, agent in ctx.agents.items():
        if not ctx.is_configured(nid):
            continue
        comp = topology.component_id(nid)
        if comp is None:
            continue
        ids, head_networks, networks = table.setdefault(
            comp, ([], set(), set()))
        network = getattr(agent, "network_id", None)
        networks.add(network)
        if ctx.is_head(nid):
            ids.append(nid)
            head_networks.add(network)
    return {comp: (tuple(sorted(ids)), frozenset(hnets), frozenset(nets))
            for comp, (ids, hnets, nets) in table.items()}


def assert_table_is_the_reference(ctx, component_entry=None):
    """``component_entry`` answers every registered id, and a stranger,
    as the reference does."""
    if component_entry is None:
        component_entry = ctx.component_entry
    table = reference_table(ctx)
    for nid in list(ctx.agents) + [99]:
        want = table.get(ctx.topology.component_id(nid), NO_HEADS)
        assert component_entry(nid) == want, nid


def assert_rebuilt_table_is_the_reference(ctx):
    # ``note_network`` versions the table unconditionally: the next
    # lookup rebuilds it, whatever the hooks of the change under test
    # did or (liveness has none) did not do.
    ctx.note_network(0)
    assert_table_is_the_reference(ctx)


def two_clusters(ctx):
    agents = [
        add(ctx, 1, allocator=True, configured=True, network_id=7, x=0.0),
        add(ctx, 2, allocator=True, configured=True, network_id=7, x=100.0),
        add(ctx, 3, configured=True, network_id=9, x=200.0),
        add(ctx, 4, configured=False, x=300.0),
        add(ctx, 11, allocator=True, configured=True, network_id=8,
            x=5000.0),
        add(ctx, 12, configured=True, network_id=None, x=5100.0),
    ]
    assert_table_is_the_reference(ctx)
    assert ctx.component_heads(3) == (1, 2)
    assert networks(ctx, 11) == frozenset({8, None})
    return {agent.node.node_id: agent for agent in agents}


def test_table_asks_the_agent_not_the_address_column():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    # After a re-found two networks hold address 0.  The registry is
    # keyed by ip alone, so when node 1 gives its address up the unbind
    # resolves to node 3 — the last to bind it — and clears *it*:
    # node 1 stays noted as bound while unconfigured, node 3 is not
    # while configured.
    ctx.bind_ip(0, 1)
    ctx.bind_ip(0, 3)
    agents[1]._configured = False
    ctx.unbind_ip(0)
    assert ctx.bound_address_count() == 1
    assert not ctx.is_configured(1) and ctx.is_configured(3)
    assert_table_is_the_reference(ctx)
    assert ctx.component_heads(4) == (2,)
    assert networks(ctx, 4) == frozenset({7, 9})


def test_table_reads_liveness_live():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    # Killed with no invalidate_nodes: still in the graph, not alive.
    agents[2].node.kill()
    assert_rebuilt_table_is_the_reference(ctx)
    assert ctx.component_heads(3) == (1,)
    # Revived the same way.
    agents[2].node.alive = True
    assert_rebuilt_table_is_the_reference(ctx)
    assert ctx.component_heads(3) == (1, 2)
    # Killed and refreshed out of the graph, then revived with no
    # invalidate_nodes: alive, not in the graph (and 3 is cut off).
    agents[2].node.kill()
    ctx.topology.invalidate_nodes([2])
    assert_table_is_the_reference(ctx)
    agents[2].node.alive = True
    assert_rebuilt_table_is_the_reference(ctx)
    assert ctx.component_heads(1) == (1,)
    assert ctx.component_entry(2) == NO_HEADS
    assert ctx.component_heads(3) == ()


def test_table_skips_an_agent_whose_node_left_the_topology():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    ctx.topology.remove_node(agents[11].node)
    assert ctx.agent_of(11) is agents[11]
    assert_rebuilt_table_is_the_reference(ctx)
    assert ctx.component_entry(11) == NO_HEADS
    assert ctx.component_entry(12) == ((), frozenset(), frozenset({None}))


def test_table_follows_a_reregistered_agent():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    # Same id, same place: what the context held about it starts over.
    FakeAgent(ctx, agents[1].node, allocator=False, configured=True,
              network_id=5)
    assert_table_is_the_reference(ctx)
    assert ctx.component_heads(3) == (2,)
    assert networks(ctx, 3) == frozenset({5, 7, 9})
    FakeAgent(ctx, agents[2].node, allocator=True, configured=True,
              network_id=5)
    assert list(ctx.agents) == [1, 2, 3, 4, 11, 12]
    assert_table_is_the_reference(ctx)
    assert ctx.component_heads(3) == (2,)
    assert head_networks(ctx, 3) == frozenset({5})


# ---------------------------------------------------------------------------
# role_epoch: which operations version the component table
# ---------------------------------------------------------------------------
# The number of table rebuilds is visible (``conn_label_hits``), so the
# epoch must move at exactly these moments.  Each row starts from:
# node 1 registered, an allocator, address 42 bound; node 2 registered,
# nothing noted; node 99 never registered.
ROLE_EPOCH_TABLE = [
    ("register a new id", lambda ctx: add(ctx, 3), 1),
    ("re-register an id",
     lambda ctx: ctx.register(ctx.agents[1]), 1),
    ("note_role, registered", lambda ctx: ctx.note_role(1), 1),
    ("note_role, stranger", lambda ctx: ctx.note_role(99), 0),
    ("note_network, registered", lambda ctx: ctx.note_network(1), 1),
    ("note_network, stranger", lambda ctx: ctx.note_network(99), 1),
    ("note_head_state, registered", lambda ctx: ctx.note_head_state(1), 1),
    ("note_head_state, stranger", lambda ctx: ctx.note_head_state(99), 1),
    ("note_allocator, flip off", lambda ctx: ctx.note_allocator(1, False), 1),
    ("note_allocator, flip on", lambda ctx: ctx.note_allocator(2, True), 1),
    ("note_allocator, same answer",
     lambda ctx: ctx.note_allocator(1, True), 0),
    ("note_allocator, stranger", lambda ctx: ctx.note_allocator(99, True), 0),
    ("bind_ip, first address", lambda ctx: ctx.bind_ip(7, 2), 1),
    ("bind_ip, second address of a bound id", lambda ctx: ctx.bind_ip(43, 1), 0),
    ("bind_ip, stranger", lambda ctx: ctx.bind_ip(7, 99), 0),
    ("unbind_ip, bound", lambda ctx: ctx.unbind_ip(42), 1),
    ("unbind_ip, unknown address", lambda ctx: ctx.unbind_ip(7), 0),
    # ip_registry is keyed by ip alone: after 2 binds 1's address too,
    # the unbind names 2 — the last to bind it — whoever gave it up.
    ("unbind_ip after another id bound the same address",
     lambda ctx: (ctx.bind_ip(42, 2), ctx.unbind_ip(42)), 2),
    ("unbind_ip again: the first binder stays noted",
     lambda ctx: (ctx.bind_ip(42, 2), ctx.unbind_ip(42),
                  ctx.unbind_ip(42)), 2),
]


@pytest.mark.parametrize(
    "operation, bumps", [
        pytest.param(op, bumps, id=re.sub(r"\W+", "-", name))
        for name, op, bumps in ROLE_EPOCH_TABLE])
def test_role_epoch_moves_exactly_when_the_table_could_change(
        operation, bumps):
    ctx = make_ctx()
    add(ctx, 1, allocator=True)
    add(ctx, 2)
    ctx.bind_ip(42, 1)
    epoch = ctx.role_epoch
    operation(ctx)
    assert ctx.role_epoch == epoch + bumps

