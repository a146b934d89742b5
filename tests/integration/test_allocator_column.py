"""``NetworkContext.is_head`` answers from the registry's allocator
column; the agent's ``is_allocator()`` stays the authority.

Every ``is_head`` call of a seeded scenario is replayed against the
old definition (registered agent, node in the topology and alive,
``agent.is_allocator()``), once per protocol and once for the
duck-typed double of ``tests/net/test_context.py``.  A missed
``note_allocator`` write-through shows up as a disagreement at the
first query that would have read the stale byte.
"""

import pytest

from repro.baselines.buddy import BuddyConfig
from repro.baselines.ctree import CTreeConfig
from repro.experiments import Scenario, ScenarioRunner
from repro.faults.spec import CrashEvent, FaultSpec
from repro.net.context import NetworkContext
from repro.sim.timers import PeriodicTimer

from tests.net.test_context import add, make_ctx


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
            f"t={ctx.sim.now}: column says {answer} for node {node_id}, "
            f"{type(agent).__name__}.is_allocator() says {expected}")
        calls[0] += 1
        return answer

    build = NetworkContext.build.__func__

    def build_with_sweep(cls, *args, **kwargs):
        # Some baselines never ask "is this a head?" themselves: sweep
        # the whole registry twice a simulated second on their behalf.
        ctx = build(cls, *args, **kwargs)
        PeriodicTimer(ctx.sim, 0.5, lambda: [
            ctx.is_head(node_id) for node_id in ctx.agents]).start()
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


@pytest.mark.parametrize(
    "protocol", ["quorum", "manetconf", "buddy", "ctree", "dad", "weakdad"])
def test_column_agrees_with_is_allocator_at_every_query(
        protocol, checked_is_head):
    # Churn, abrupt deaths and a crash that restarts: every way an
    # allocator appears, disappears and comes back.
    faults = FaultSpec(loss_rate=0.02, crashes=(
        CrashEvent(node_id=3, at=20.0, restart_at=35.0),
        CrashEvent(node_id=5, at=25.0, restart_at=None)))
    scenario = Scenario(num_nodes=30, seed=5, depart_fraction=0.4,
                        abrupt_probability=0.5, settle_time=30.0,
                        faults=faults)
    runner = ScenarioRunner(scenario, protocol, TIGHT_POOLS.get(protocol))
    runner.run()
    assert checked_is_head[0] > 100 * len(runner.ctx.agents)


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
    ctx.unregister(1)
    assert not ctx.is_head(1)
    assert checked_is_head[0] == 7
