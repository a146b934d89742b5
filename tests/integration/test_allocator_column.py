"""``NetworkContext.is_head`` answers from ``allocator_ids``, the set
the agents write through to; the agent's ``is_allocator()`` stays the
authority.

Every ``is_head`` call of a seeded scenario is replayed against the
old definition (registered agent, node in the topology and alive,
``agent.is_allocator()``), once per protocol and once for the
duck-typed double of ``tests/net/test_context.py``.  A missed
``note_allocator`` write-through shows up as a disagreement at the
first query that would have read the stale set — the same set head
scans probe before they ask ``is_head``.

The two batched readers get the same treatment for ``quorum``, on the
same scenario: whenever the graph version has moved or a node was noted,
``component_entry`` must answer every registered id as the per-node
loop it replaced does (the reference in ``tests/net/test_context.py``),
and every audit's one label question must find reachable exactly the
members ``_member_reachable`` does.
"""

import pytest

from repro.baselines.buddy import BuddyConfig
from repro.baselines.ctree import CTreeConfig
from repro.core.protocol import QuorumProtocolAgent
from repro.experiments import Scenario, ScenarioRunner
from repro.experiments.runner import PROTOCOLS
from repro.faults.spec import CrashEvent, FaultSpec
from repro.net.context import NetworkContext
from repro.sim.timers import PeriodicTimer

from tests.net.test_context import (add, assert_table_is_the_reference,
                                    make_ctx)


@pytest.fixture
def checked_is_head(monkeypatch):
    """Wrap ``is_head`` with the cross-check; yields the call count."""
    column_is_head = NetworkContext.is_head
    calls = [0]

    def is_head(ctx, node_id):
        answer = column_is_head(ctx, node_id)
        agent = ctx.agents.get(node_id)
        node = ctx.topology.get(node_id)
        expected = bool(agent is not None and node is not None
                        and node.alive and agent.is_allocator())
        assert answer == expected, (
            f"t={ctx.sim.now}: the set says {answer} for node {node_id}, "
            f"{type(agent).__name__}.is_allocator() says {expected}")
        calls[0] += 1
        return answer

    build = NetworkContext.build.__func__

    def build_with_sweep(cls, *args, **kwargs):
        # Some baselines never ask "is this a head?" themselves, and
        # head scans put only candidates to ``is_head``: sweep the
        # whole registry twice a simulated second on their behalf.
        ctx = build(cls, *args, **kwargs)

        def sweep():
            for node_id in ctx.agents:
                ctx.is_head(node_id)
            # Nobody outside the registry lingers in the set either.
            assert ctx.allocator_ids <= set(ctx.agents)

        PeriodicTimer(ctx.sim, 0.5, sweep).start()
        return ctx

    monkeypatch.setattr(NetworkContext, "is_head", is_head)
    monkeypatch.setattr(NetworkContext, "build", classmethod(build_with_sweep))
    return calls


# Buddy and C-tree allocators stop being allocators when their pool
# runs dry; these address spaces are tight enough for 30 nodes that
# coordinators allocate their last address inside a message handler
# (ctree) and buddies reclaim a dead peer's emptied pool (buddy).
TIGHT_POOLS = {"buddy": BuddyConfig(address_space_bits=6),
               "ctree": CTreeConfig(address_space_bits=4)}


def churn_runner(protocol):
    # Churn, abrupt deaths and a crash that restarts: every way an
    # allocator appears, disappears and comes back.
    faults = FaultSpec(loss_rate=0.02, crashes=(
        CrashEvent(node_id=3, at=20.0, restart_at=35.0),
        CrashEvent(node_id=5, at=25.0, restart_at=None)))
    scenario = Scenario(num_nodes=30, seed=5, depart_fraction=0.4,
                        abrupt_probability=0.5, settle_time=30.0,
                        faults=faults)
    return ScenarioRunner(scenario, protocol, TIGHT_POOLS.get(protocol))


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_column_agrees_with_is_allocator_at_every_query(
        protocol, checked_is_head):
    runner = churn_runner(protocol)
    runner.run()
    assert checked_is_head[0] > 100 * len(runner.ctx.agents)


def test_component_table_is_the_per_node_reference_at_every_rebuild(
        monkeypatch):
    one_pass_entry = NetworkContext.component_entry
    table_current = NetworkContext.table_current
    note = NetworkContext.note
    checked_keys = set()
    notes = [0]

    def counted_note(ctx, node_id):
        notes[0] += node_id in ctx.agents
        note(ctx, node_id)

    def check(ctx):
        # The table was just patched up to this key.
        key = (ctx.topology.graph_version, notes[0])
        if key not in checked_keys:
            checked_keys.add(key)
            assert_table_is_the_reference(
                ctx, lambda nid: one_pass_entry(ctx, nid))

    def component_entry(ctx, node_id):
        # The lookup forces any pending graph refresh and patches.
        entry = one_pass_entry(ctx, node_id)
        check(ctx)
        return entry

    def gate(ctx):
        # The park gate patches on a current graph.
        current = table_current(ctx)
        if current:
            check(ctx)
        return current

    monkeypatch.setattr(NetworkContext, "component_entry", component_entry)
    monkeypatch.setattr(NetworkContext, "table_current", gate)
    monkeypatch.setattr(NetworkContext, "note", counted_note)
    runner = churn_runner("quorum")
    runner.run()
    assert len(checked_keys) >= 324


def test_audit_reachability_is_the_per_member_walk(monkeypatch):
    batched = QuorumProtocolAgent._reachable_members
    members_asked, found_unreachable = [0], [0]

    def reachable_members(agent, members):
        answer = batched(agent, members)
        assert answer == {member for member in members
                          if agent._member_reachable(member)}
        members_asked[0] += len(members)
        found_unreachable[0] += len(members) - len(answer)
        return answer

    monkeypatch.setattr(
        QuorumProtocolAgent, "_reachable_members", reachable_members)
    churn_runner("quorum").run()
    # Both answers were exercised, many times each.
    assert 100 < found_unreachable[0] < members_asked[0] - 100


def test_column_agrees_for_the_duck_typed_double(checked_is_head):
    ctx = make_ctx()
    head = add(ctx, 1, allocator=True, configured=True)
    add(ctx, 2, configured=True)
    assert ctx.is_head(1) and not ctx.is_head(2) and not ctx.is_head(99)
    head.allocator = False
    assert not ctx.is_head(1)
    head.allocator = True
    head.node.kill()
    assert not ctx.is_head(1)
    head.node.alive = True
    assert ctx.is_head(1)
    assert checked_is_head[0] == 6
