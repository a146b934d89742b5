"""Unit tests for the shared network context."""

import random
import re

import pytest

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Node
from repro.net.context import NetworkContext
from repro.net import topology
from repro.sim.timers import PeriodicTimer
from tests.helpers import passes_over
from tests.net.structure import component_id


class FakeAgent:
    ip = None  # registration reads the address

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
    ctx.bind_ip(None, 42, 1)
    assert ctx.resolve_ip(None, 42) == 1
    ctx.unbind_ip(None, 42)
    assert ctx.resolve_ip(None, 42) is None


def test_ip_registry_keys_addresses_by_network():
    ctx = make_ctx()
    add(ctx, 1)
    add(ctx, 2)
    ctx.bind_ip(7, 0, 1)
    ctx.bind_ip(9, 0, 2)
    assert (ctx.resolve_ip(7, 0), ctx.resolve_ip(9, 0)) == (1, 2)
    assert ctx.resolve_ip(8, 0) is None
    ctx.unbind_ip(9, 0)
    assert (ctx.resolve_ip(7, 0), ctx.resolve_ip(9, 0)) == (1, None)
    assert ctx.bound_address_count() == 1


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
    ctx.note(1)
    assert ctx.component_heads(2) == ()
    assert head_networks(ctx, 2) == frozenset()


def test_component_tables_refresh_on_network_transition():
    ctx = make_ctx()
    head = add(ctx, 1, allocator=True, configured=True, network_id=7)
    add(ctx, 2, configured=True, network_id=7)
    assert head_networks(ctx, 2) == frozenset({7})
    head.network_id = 9
    ctx.note(1)
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
    ctx.note(1)
    assert ctx.component_heads(2) == ()


def test_component_tables_refresh_when_address_bound_ness_flips():
    ctx = make_ctx()
    add(ctx, 1, allocator=True, configured=True, network_id=7)
    agent = add(ctx, 2, configured=False, network_id=None)
    assert networks(ctx, 1) == frozenset({7})
    # Binding an IP flips bound-ness, which versions the table.
    agent._configured = True
    agent.network_id = 9
    ctx.bind_ip(None, 42, 2)
    assert networks(ctx, 1) == frozenset({7, 9})
    # Unbinding flips it back — again through the hook.
    agent._configured = False
    ctx.unbind_ip(None, 42)
    assert networks(ctx, 1) == frozenset({7})


def test_rebinding_to_a_new_address_does_not_version_the_tables():
    ctx = make_ctx()
    add(ctx, 1, configured=True, network_id=7)
    ctx.bind_ip(None, 42, 1)
    audit = parked_audit(ctx)
    # Same bound-ness, different address: configured-ness and head-ness
    # are unchanged, so the derived tables stay valid.
    ctx.bind_ip(None, 43, 1)
    assert audit._parked
    ctx.unbind_ip(None, 43)
    assert not audit._parked


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
        comp = component_id(topology, nid)
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
        want = table.get(component_id(ctx.topology, nid), NO_HEADS)
        assert component_entry(nid) == want, nid


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
    # After a re-found two networks hold address 0, each under its own
    # key: when node 1 gives its address up, the unbind clears node 1
    # and leaves node 3 bound.  The table reads the agents either way.
    ctx.bind_ip(7, 0, 1)
    ctx.bind_ip(9, 0, 3)
    agents[1]._configured = False
    ctx.unbind_ip(7, 0)
    assert ctx.resolve_ip(9, 0) == 3
    assert ctx.bound_address_count() == 1
    assert not ctx.is_configured(1) and ctx.is_configured(3)
    assert_table_is_the_reference(ctx)
    assert ctx.component_heads(4) == (2,)
    assert networks(ctx, 4) == frozenset({7, 9})


def test_table_reads_liveness_where_the_graph_moves():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    # Killed and refreshed out of the graph: 3 is cut off from the heads.
    agents[2].node.kill()
    ctx.topology.invalidate_nodes([2])
    assert_table_is_the_reference(ctx)
    assert ctx.component_heads(1) == (1,)
    assert ctx.component_entry(2) == NO_HEADS
    assert ctx.component_heads(3) == ()
    # Revived the same way.
    agents[2].node.alive = True
    ctx.topology.invalidate_nodes([2])
    assert_table_is_the_reference(ctx)
    assert ctx.component_heads(3) == (1, 2)


def test_table_reads_liveness_only_for_noted_nodes():
    # The contract the test above relies on: liveness is read for the
    # nodes a hook noted and for those whose label moved, never
    # otherwise.  A kill nobody announces is not seen through
    # another node's note, only through the node's own.
    ctx = make_ctx()
    agents = two_clusters(ctx)
    agents[2].node.kill()
    ctx.note(1)
    assert ctx.component_heads(3) == (1, 2)
    ctx.note(2)
    assert ctx.component_heads(3) == (1,)


def test_table_rereads_only_the_noted_agents():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    asked = []
    for node_id, agent in agents.items():
        agent.is_configured = (
            lambda node_id=node_id, agent=agent:
            asked.append(node_id) or agent._configured)
    ctx.note(3)
    ctx.note(11)
    ctx.component_entry(1)
    assert sorted(asked) == [3, 11]
    # A new graph version re-reads the agents whose label moved, and no
    # one else.  A node arriving next to 12 moves no label but its own,
    # and it has no agent: nobody is re-read.
    del asked[:]
    version = ctx.topology.graph_version
    ctx.topology.add_node(Node(20, Stationary(Point(5200.0, 0))))
    ctx.component_entry(1)
    assert ctx.topology.graph_version == version + 1
    assert asked == []
    # Killing the bridge 2 cuts 1 off from 3 and 4: the piece that
    # came off is relabeled and re-read, the other piece and the far
    # cluster are not.
    ids = sorted(agents)
    before = ctx.topology.component_indices(ids)
    agents[2].node.kill()
    ctx.topology.invalidate_nodes([2])
    ctx.component_entry(1)
    after = ctx.topology.component_indices(ids)
    moved = [node_id for node_id, old, new in zip(ids, before, after)
             if new is not None and new != old]
    assert moved in ([1], [3, 4])
    assert sorted(asked) == moved
    assert_table_is_the_reference(ctx)


def parked_timer(ctx, node_id):
    """A timer parked on ``node_id``'s entry, as the merge scan parks."""
    timer = PeriodicTimer(ctx.sim, 1.0, lambda: None)
    ctx.park_on_entry(node_id, timer)
    return timer


def parked_audit(ctx, node_id=1):
    """A timer parked as ``node_id``'s head audit parks."""
    timer = PeriodicTimer(ctx.sim, 1.0, lambda: None)
    ctx.park_audit(node_id, timer)
    return timer


def test_entry_park_wakes_only_with_its_own_sets():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    near, far = parked_timer(ctx, 3), parked_timer(ctx, 12)
    assert passes_over(near) and passes_over(far)
    # A head that stops allocating leaves its network with a head of
    # the same network beside it: the sets stand.
    agents[2].allocator = False
    assert passes_over(near)
    assert ctx.component_heads(3) == (1,)
    # Node 3 leaving network 9 for 7 takes 9 out of the component: its
    # members wake, the other component's stay parked.
    agents[3].network_id = 7
    ctx.note(3)
    assert not passes_over(near)
    assert passes_over(far)
    assert networks(ctx, 1) == frozenset({7})
    # A graph due a refresh ends every park.
    near = parked_timer(ctx, 3)
    ctx.sim.run(until=ctx.topology.refresh_interval * 2)
    assert not ctx.table_current()
    assert not passes_over(near) and not passes_over(far)


def test_entry_park_holds_across_a_change_elsewhere_and_wakes_a_crash():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    parks = {node_id: parked_timer(ctx, node_id) for node_id in (1, 3, 12)}
    # 12 crashes in place: its own park ends, the other cluster's hold.
    agents[12].node.kill()
    ctx.topology.invalidate_nodes([12])
    ctx.component_entry(1)
    assert not passes_over(parks[12])
    assert passes_over(parks[1]) and passes_over(parks[3])
    # 4 (unconfigured) leaves: 1 and 3 keep their component and sets.
    ctx.topology.remove_node(agents[4].node)
    ctx.component_entry(1)
    assert passes_over(parks[1]) and passes_over(parks[3])


def entry_sets(ctx):
    """Each configured agent in the graph -> its entry's head-network
    and network sets, as the reference table has them."""
    table = reference_table(ctx)
    sets = {}
    for node_id in ctx.agents:
        comp = component_id(ctx.topology, node_id)
        if comp is not None and ctx.is_configured(node_id):
            sets[node_id] = table[comp][1:]
    return sets


@pytest.mark.parametrize("seed", range(6))
def test_table_follows_seeded_churn(seed, monkeypatch):
    """Arrivals, departures, crash/restarts, moves, mobile refreshes
    that move more than a quarter of the nodes (the full rebuild path)
    and noted transitions in a seeded mix, on a line where cuts and
    bridges are common: after every step the table is the reference,
    and every entry park of a configured agent whose entry sets
    changed, or that crashed in place, has been woken.  Odd seeds
    bound the label journal tightly, so the table also starts over
    when the journal is trimmed."""
    if seed % 2:
        monkeypatch.setattr(topology, "JOURNAL_MAX_PER_SLOT", 0.1)
    rng = random.Random(seed)
    ctx = make_ctx()
    ids = iter(range(1, 1000))
    in_store = []
    sets = entry_sets(ctx)
    parks = {}
    kept = full = 0
    kinds = dict.fromkeys(
        ["arrive", "depart", "crash", "restart", "move", "mobile", "note"],
        0)
    for _step in range(240):
        roll = rng.random()
        dead = [agent for agent in in_store if not agent.node.alive]
        if roll < 0.3 or len(in_store) < 3:
            kind = "arrive"
            agent = add(ctx, next(ids), allocator=rng.random() < 0.3,
                        configured=rng.random() < 0.7,
                        network_id=rng.choice([7, 8, None]),
                        x=rng.uniform(0.0, 1200.0))
            in_store.append(agent)
        elif roll < 0.4:
            kind = "depart"
            agent = in_store.pop(rng.randrange(len(in_store)))
            ctx.topology.remove_node(agent.node)
        elif roll < 0.5:
            kind = "crash"
            agent = rng.choice(in_store)
            agent.node.kill()
            ctx.topology.invalidate_nodes([agent.node.node_id])
        elif roll < 0.6 and dead:
            kind = "restart"
            agent = rng.choice(dead)
            agent.node.alive = True
            ctx.topology.invalidate_nodes([agent.node.node_id])
        elif roll < 0.75:
            # Nodes moved: the next refresh, once the snapshot ages,
            # detaches them and puts them back where they are now.  A
            # mobile step moves a third of them, so the refresh takes
            # the full path.
            kind = "move" if roll < 0.67 else "mobile"
            movers = (1 if kind == "move"
                      else max(2, len(in_store) // 3))
            for agent in rng.sample(in_store, movers):
                x = (agent.node.position(0.0).x + rng.uniform(-80.0, 80.0)
                     if kind == "mobile" else rng.uniform(0.0, 1200.0))
                agent.node.mobility = Stationary(Point(x, 0.0))
            ctx.sim.run(until=ctx.sim.now + ctx.topology.refresh_interval
                        * 2)
        else:
            kind = "note"
            agent = rng.choice(in_store)
            what = rng.randrange(3)
            if what == 0:
                agent.allocator = not agent.allocator
            elif what == 1:
                agent._configured = not agent._configured
            else:
                agent.network_id = rng.choice([7, 8, 9, None])
            ctx.note(agent.node.node_id)
        kinds[kind] += 1
        relabels = ctx.perf.get("conn_full_relabels")
        assert_table_is_the_reference(ctx)
        full += ctx.perf.get("conn_full_relabels") - relabels
        assert ctx.table_current()
        now = entry_sets(ctx)
        for node_id, timer in parks.items():
            if not timer._parked:
                continue
            agent = ctx.agents[node_id]
            crashed = (ctx.node_of(node_id) is not None
                       and not agent.node.alive)
            assert not crashed, (kind, _step, node_id)
            if node_id in now:
                assert now[node_id] == sets[node_id], (kind, _step, node_id)
                kept += 1
        # Park every configured agent, as its merge scan would.
        parks = {node_id: parked_timer(ctx, node_id) for node_id in now}
        sets = now
    assert all(kinds.values()), kinds
    assert kept > 0 and full > 0


def test_table_skips_an_agent_whose_node_left_the_topology():
    ctx = make_ctx()
    agents = two_clusters(ctx)
    ctx.topology.remove_node(agents[11].node)
    assert ctx.agent_of(11) is agents[11]
    assert_table_is_the_reference(ctx)
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
# Which operations note a node, and so wake a parked audit
# ---------------------------------------------------------------------------
# Every hook goes through ``note``: a registered id wakes every parked
# head audit (its verdict read other heads' roles and network ids) and
# is re-read at the component table's next patch; a stranger does
# neither.  Each row gives the notes it makes, and starts from: node 1
# registered, an allocator, address 42 bound; node 2 registered,
# nothing noted; node 99 never registered.
NOTE_TABLE = [
    ("register a new id", lambda ctx: add(ctx, 3), 1),
    ("re-register an id",
     lambda ctx: ctx.register(ctx.agents[1]), 1),
    ("note, registered", lambda ctx: ctx.note(1), 1),
    ("note, stranger", lambda ctx: ctx.note(99), 0),
    ("note_allocator, flip off", lambda ctx: ctx.note_allocator(1, False), 1),
    ("note_allocator, flip on", lambda ctx: ctx.note_allocator(2, True), 1),
    ("note_allocator, same answer",
     lambda ctx: ctx.note_allocator(1, True), 0),
    ("note_allocator, stranger", lambda ctx: ctx.note_allocator(99, True), 0),
    ("bind_ip, first address", lambda ctx: ctx.bind_ip(None, 7, 2), 1),
    ("bind_ip, second address of a bound id",
     lambda ctx: ctx.bind_ip(None, 43, 1), 0),
    ("bind_ip, stranger", lambda ctx: ctx.bind_ip(None, 7, 99), 0),
    ("unbind_ip, bound", lambda ctx: ctx.unbind_ip(None, 42), 1),
    ("unbind_ip, unknown address", lambda ctx: ctx.unbind_ip(None, 7), 0),
    # Within one network an address has one binder: after 2 binds 1's
    # address too, the unbind names 2 — the last to bind it.
    ("unbind_ip after another id bound the same address",
     lambda ctx: (ctx.bind_ip(None, 42, 2), ctx.unbind_ip(None, 42)), 2),
    ("unbind_ip again: the first binder stays noted",
     lambda ctx: (ctx.bind_ip(None, 42, 2), ctx.unbind_ip(None, 42),
                  ctx.unbind_ip(None, 42)), 2),
]


@pytest.mark.parametrize(
    "operation, notes", [
        pytest.param(op, notes, id=re.sub(r"\W+", "-", name))
        for name, op, notes in NOTE_TABLE])
def test_role_epoch_moves_exactly_when_the_table_could_change(
        operation, notes, monkeypatch):
    """Named for the note counter the audit's wake replaced: the
    operations that note a registered id are the ones that wake a
    parked audit, and mark the id for the table's next patch."""
    ctx = make_ctx()
    add(ctx, 1, allocator=True)
    add(ctx, 2)
    ctx.bind_ip(None, 42, 1)
    ctx.component_entry(1)          # the table is patched: nothing dirty
    audit = parked_audit(ctx)
    noted = []
    note = ctx.note
    monkeypatch.setattr(ctx, "note",
                        lambda node_id: (noted.append(node_id),
                                         note(node_id)))
    operation(ctx)
    assert len([node_id for node_id in noted
                if node_id in ctx.agents]) == notes
    assert audit._parked == (not notes)
    assert bool(ctx._dirty) == bool(notes)

