"""The periodic polls are passed over while nothing they read has
moved, and the component table patches only the nodes the hooks noted
or whose label moved.  Both are meant to be exact, so this test wraps
them and checks every use, over the pinned cells of
``tests/integration/test_pinned_results.py`` (the two crash/restart
cells included), each run for ten seconds past its pinned settle time:

* every ``component_entry`` answer equals ``reference_table``, the
  per-node loop of ``tests/net/test_context.py``;
* every merge scan, head audit and location check a cohort passes over
  while its timer is parked (a lone member re-armed in its own cohort
  included) is run in full on the spot instead, and must change
  nothing a poll can change: the agent's fields, a common node's
  administrator, its QDSet, its timers, the message and event tallies
  and the simulator's pending events — and must park again.
"""

import copy

import pytest

from repro.core.protocol import QuorumProtocolAgent
from repro.experiments import ScenarioRunner
from repro.net.context import NetworkContext
from repro.sim.timers import PeriodicTimer, Timer, _Cohort

from tests.helpers import passes_over
from tests.integration.test_pinned_results import CELLS, cell_scenario
from tests.net.structure import component_id
from tests.net.test_context import NO_HEADS, reference_table

#: The pinned cells' settle time, plus ten seconds.
SETTLE_S = 40.0
POLLS = ("_merge_scan", "_audit", "_check_location")
#: Per cell, the passes over each poll (in ``POLLS`` order) to keep.
FLOORS = {"mobile": (301, 0, 0), "mobile_crash": (334, 0, 0),
          "static_lossy": (1615, 193, 1299),
          "static_lossy_crash": (1618, 116, 1331)}


def state_of(value):
    """``value`` with timers read out and containers copied, so that a
    later ``==`` compares what they hold now."""
    if isinstance(value, Timer):
        return ("timer", value.deadline)
    if isinstance(value, PeriodicTimer):
        return ("periodic", value.running)
    if isinstance(value, dict):
        return {key: state_of(item) for key, item in value.items()}
    if isinstance(value, (set, list, tuple)):
        return copy.copy(value)
    return value


def observable(agent):
    ctx = agent.ctx
    fields = {name: state_of(value) for name, value in vars(agent).items()}
    head = agent.head
    qdset = None if head is None else (
        head.qdset.version, head.qdset.members(), head.qdset.suspected())
    common = agent.common
    administrator = None if common is None else common.administrator_id
    return (fields, administrator, qdset, ctx.stats.snapshot(),
            ctx.events.snapshot(), ctx.sim.pending_events)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_skips_and_table_patches_are_exact(cell, monkeypatch):
    checked = dict.fromkeys(["component_entry", *POLLS], 0)
    patched_entry = NetworkContext.component_entry

    def component_entry(ctx, node_id):
        answer = patched_entry(ctx, node_id)
        # The lookup refreshed the graph; the reference reads it as is.
        want = reference_table(ctx).get(
            component_id(ctx.topology, node_id), NO_HEADS)
        assert answer == want, (ctx.sim.now, node_id)
        checked["component_entry"] += 1
        return answer

    def exact(agent, timer):
        """Run ``timer``'s poll in full where it is passed over: it must
        change nothing and park again."""
        poll = timer._callback
        checked[poll.__name__] += 1
        timer.unpark()
        before = observable(agent)
        poll()
        assert observable(agent) == before, (poll.__name__,
                                             agent.ctx.sim.now,
                                             agent.node_id)
        assert timer._parked, (poll.__name__, agent.ctx.sim.now,
                               agent.node_id)

    pass_parked = _Cohort._pass_parked

    def replayed_pass(cohort, sim, timer, members):
        # Hand the cohort's parked branch one member at a time, and
        # replay each poll it passes over before it re-arms.
        while timer is not None:
            agent = getattr(timer._callback, "__self__", None)
            if (timer._cohort is cohort
                    and isinstance(agent, QuorumProtocolAgent)
                    and passes_over(timer)):
                exact(agent, timer)
            called = pass_parked(cohort, sim, timer, iter(()))
            if called is not None:
                return called
            timer = next(members, None)
        return None

    monkeypatch.setattr(NetworkContext, "component_entry", component_entry)
    monkeypatch.setattr(_Cohort, "_pass_parked", replayed_pass)
    # Polls skip in a settled run's quiet stretches, and the last ten
    # seconds give each static cell one more.  The crash cell needs it:
    # since head proposals time out, its run takes another course, in
    # which head 25's departure at t=96.7 cuts head 27 off from its
    # whole QDSet, and four heads suspect one another through 27's
    # re-found until t=110.  At the pinned length the audit skips 98
    # times there.
    ScenarioRunner(cell_scenario(cell, settle_time=SETTLE_S),
                   "quorum").run()
    # Every cell asks the table many times, and passes over each poll at
    # least as often as the per-timer stamps it replaced did (their
    # counts are the floors, where this protocol does not pass more).
    # Under mobility every refresh moves nodes, which wakes every
    # parked location check and audit, so only merge scans pass there.
    assert checked["component_entry"] > 100, checked
    for name, floor in zip(POLLS, FLOORS[cell]):
        assert checked[name] >= floor, (name, checked)
