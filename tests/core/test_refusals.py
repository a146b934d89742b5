"""A request no transaction is opened for ends its requester's span at
the refuser: ``_refuse`` emits ``ConfigAborted`` (attempt 0, the reason)
before it NACKs the sender in the request's own kind."""

from repro.core import messages as m
from repro.net.message import Message
from repro.obs import TraceRecorder
from repro.obs.events import ConfigAborted

from tests.helpers import line_agents, make_ctx, sends_from


def traced_world():
    """A settled three-node chain (one head, two common nodes) with a
    recorder of every span abort attached from now on."""
    ctx = make_ctx()
    agents = line_agents(ctx, 3)
    ctx.sim.run(until=50.0)
    assert [agent.is_allocator() for agent in agents] == [True, False, False]
    aborts = TraceRecorder(etypes=(ConfigAborted.etype,)).attach(ctx.obs)
    return ctx, agents, aborts


def test_com_req_to_a_non_allocator_aborts_the_span_not_allocator():
    ctx, (_head, common, requester), aborts = traced_world()
    sent = sends_from(ctx, common.node_id)
    common.on_message(Message(m.COM_REQ, requester.node_id, common.node_id,
                              {"seq": 4}, hops=1, corr=77))
    assert aborts.events == [ConfigAborted(
        time=ctx.sim.now, node=common.node_id, corr=77, attempt=0,
        requester=requester.node_id, reason="not-allocator")]
    assert sent == [m.COM_NACK]


def test_ch_req_to_a_dry_head_aborts_the_span_dry():
    ctx, (head, _common, requester), aborts = traced_world()
    while head.head.pool.take_half() is not None:
        pass  # leave the head one free address, which cannot be halved
    sent = sends_from(ctx, head.node_id)
    head.on_message(Message(m.CH_REQ, requester.node_id, head.node_id,
                            {"seq": 2}, hops=2, corr=78))
    assert aborts.events == [ConfigAborted(
        time=ctx.sim.now, node=head.node_id, corr=78, attempt=0,
        requester=requester.node_id, reason="dry")]
    assert sent == [m.CH_NACK]
