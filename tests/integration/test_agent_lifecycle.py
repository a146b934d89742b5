"""An agent that leaves takes its timers with it.

For every protocol: once an agent has vanished, or completed a
graceful departure, no live entry of the simulator's heap fires a
timer of that agent — not a retry, not a periodic check.  Each check
first asserts that the agent had such an entry, so every timer an
agent arms is torn down at least once here.

Teardown is not a rejoin: a quorum node commanded to rejoin (``MERGE_JOIN``)
during its leave grace stops its timers but keeps the leave timer
armed, and still leaves.  Some awaited replies outlive teardown by
design (the class's ``SURVIVORS``); which ones is pinned here too.
"""

import pytest

from repro.core import messages as m
from repro.core.departure import LEAVE, LEAVE_GRACE
from repro.experiments.runner import PROTOCOLS
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Node
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.sim.timers import Timer, _Cohort

HOP = 120.0
CHAIN = 8
SETTLED = 130.0


def build(protocol):
    """A chain of ``CHAIN`` nodes, one hop apart, entering 5 s apart,
    run until settled."""
    ctx = NetworkContext.build(seed=1, transmission_range=150.0)
    agents = [enter(ctx, protocol, i, at=5.0 * i + 0.1)
              for i in range(CHAIN)]
    ctx.sim.run(until=SETTLED)
    assert all(agent.is_configured() for agent in agents)
    return ctx, agents


def enter(ctx, protocol, node_id, at=None):
    node = Node(node_id, Stationary(Point(100.0 + HOP * node_id, 500.0)))
    ctx.topology.add_node(node)
    agent = PROTOCOLS[protocol](ctx, node)
    if at is None:
        agent.on_enter()
    else:
        ctx.sim.schedule(at, agent.on_enter)
    return agent


def fires_for(callback, agent):
    """Does ``callback`` run code of ``agent`` (a bound method of it,
    or a closure over it)?"""
    if getattr(callback, "__self__", None) is agent:
        return True
    cells = getattr(callback, "__closure__", None) or ()
    return any(cell.cell_contents is agent for cell in cells)


def live_timers(ctx, agent):
    """What of ``agent`` is behind a live heap entry: its timers, and
    the callbacks of it scheduled raw, with no timer."""
    found = []
    for _time, _priority, _seq, event in ctx.sim._heap:
        if not event.pending:
            continue
        owner = getattr(event.callback, "__self__", None)
        if isinstance(owner, Timer):
            timers = [owner]
        elif isinstance(owner, _Cohort):
            timers = list(owner.members)
        else:
            if fires_for(event.callback, agent):
                found.append(event.callback)
            continue
        found += [timer for timer in timers
                  if fires_for(timer._callback, agent)]
    return found


def assert_vanish_stops_timers(ctx, agent):
    assert live_timers(ctx, agent), "nothing armed: the check is vacuous"
    agent.vanish()
    assert live_timers(ctx, agent) == []


def assert_departure_stops_timers(ctx, agent):
    agent.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 2 * LEAVE_GRACE)
    assert not agent.node.alive
    assert live_timers(ctx, agent) == []


#: What a settled agent of each protocol keeps armed, as predicates
#: picking one agent per kind (protocols whose configured agents arm
#: nothing have none).
ARMED_WHEN_SETTLED = {
    "quorum": {
        "head": lambda a: a.head is not None,
        "common": lambda a: a.common is not None,
    },
    "buddy": {"configured": lambda a: a.is_configured()},
    "ctree": {
        "root": lambda a: a.is_root,
        "coordinator": lambda a: a.is_coordinator and not a.is_root,
    },
    "manetconf": {},
    "dad": {},
}


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_vanish_stops_every_timer(protocol):
    ctx, agents = build(protocol)
    for kind, pick in ARMED_WHEN_SETTLED[protocol].items():
        agent = next((a for a in agents if a.node.alive and pick(a)), None)
        assert agent is not None, f"no {kind} agent in the chain"
        assert_vanish_stops_timers(ctx, agent)
    # A requester mid-attempt: its retry (DAD: its AREQ round) is armed.
    requester = enter(ctx, protocol, CHAIN)
    assert not requester.is_configured()
    assert_vanish_stops_timers(ctx, requester)


def test_vanish_stops_the_self_audit():
    ctx, agents = build("quorum")
    head = next(a for a in agents if a.head is not None)
    head._initiate_self_audit()
    assert ("self_audit", None) in head._awaited
    assert_vanish_stops_timers(ctx, head)
    assert ("self_audit", None) not in head._awaited


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_graceful_departure_stops_every_timer(protocol):
    ctx, agents = build(protocol)
    # One agent of each armed kind, else the chain's far end.
    picks = list(ARMED_WHEN_SETTLED[protocol].values())
    leavers = [next(a for a in agents if a.node.alive and pick(a))
               for pick in picks] or [agents[-1]]
    for agent in leavers:
        assert_departure_stops_timers(ctx, agent)


def rejoin(agent):
    """Command ``agent`` to rejoin (``MERGE_JOIN``)."""
    agent.on_message(Message(m.MERGE_JOIN, src=0, dst=agent.node_id,
                             network_id=agent.network_id))


def test_rejoin_during_leave_grace_keeps_the_leave_timer():
    ctx, agents = build("quorum")
    member = next(a for a in agents if a.common is not None)
    member.depart_gracefully()
    assert LEAVE in member._awaited
    rejoin(member)   # before the return is acknowledged
    assert member.common is None, "the rejoin did not start"
    assert LEAVE in member._awaited
    assert member._awaited[LEAVE] in live_timers(ctx, member)
    ctx.sim.run(until=ctx.sim.now + 2 * LEAVE_GRACE)
    assert not member.node.alive
    assert live_timers(ctx, member) == []


def head_with_an_unacknowledged_grant():
    """A settled chain's head that has just granted an entrant an
    address: the grant is on its way, its acknowledgement is not."""
    ctx, agents = build("quorum")
    head = next(a for a in agents if a.head is not None)
    spot = head.node.position(ctx.sim.now)
    node = Node(CHAIN, Stationary(Point(spot.x, spot.y + 60.0)))
    ctx.topology.add_node(node)
    PROTOCOLS["quorum"](ctx, node).on_enter()
    for _ in range(10_000):
        if any(p.cfg_delivered for p in head._pending.values()):
            break
        ctx.sim.step()
    (pending,) = head._pending.values()
    assert pending.cfg_delivered
    assert ("grant", pending.attempt_id) in head._awaited
    return ctx, head


def depart_then_vanish(agent):
    agent.depart_gracefully()
    agent.vanish()


@pytest.mark.parametrize("teardown, kinds, raw", [
    (lambda head: head.vanish(), {"grant"}, []),
    # The rejoin's staggered re-entry is a raw schedule of its own.
    (rejoin, {"grant", "handoff"}, ["_begin_attempt"]),
    (depart_then_vanish, {"grant", "handoff", "leave"}, []),
], ids=["vanish", "rejoin", "depart-then-vanish"])
def test_teardown_leaves_exactly_the_survivors_armed(teardown, kinds, raw):
    ctx, head = head_with_an_unacknowledged_grant()
    teardown(head)
    left = live_timers(ctx, head)
    assert {kind for kind, _id in head._awaited} == kinds
    assert set(head._awaited.values()) == {
        entry for entry in left if isinstance(entry, Timer)}
    assert [entry.__name__ for entry in left
            if not isinstance(entry, Timer)] == raw
