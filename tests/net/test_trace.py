"""Recording transport sends: a ``TraceRecorder`` filtered to
``message.send`` on the context's event bus."""

import pytest

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import Category, Message, Node, Scope
from repro.net.context import NetworkContext
from repro.obs import TraceRecorder
from repro.obs.events import RoleAssigned


class Sink:
    def on_message(self, msg):
        pass


def make_net():
    ctx = NetworkContext.build(seed=1, transmission_range=150.0)
    nodes = []
    for i in range(3):
        node = Node(i, Stationary(Point(100 + 120 * i, 500)))
        node.agent = Sink()
        ctx.topology.add_node(node)
        nodes.append(node)
    return ctx, nodes


def sends(**kwargs):
    return TraceRecorder(etypes=("message.send",), **kwargs)


def test_records_unicasts():
    ctx, nodes = make_net()
    trace = sends().attach(ctx.obs)
    ctx.transport.send(nodes[0], nodes[2], Message("PING", 0, 2),
                       category=Category.CONFIG)
    ctx.sim.run()
    trace.detach()
    (event,) = trace.events
    assert event.kind == "unicast"
    assert (event.mtype, event.src, event.dst, event.hops) == ("PING", 0, 2, 2)
    assert event.category == "config"
    assert event.delivered


def test_records_floods():
    ctx, nodes = make_net()
    trace = sends().attach(ctx.obs)
    ctx.transport.send(nodes[0], None, Message("WAVE", 0, None),
                       category=Category.RECLAMATION, scope=Scope.FLOOD)
    trace.detach()
    (flood,) = trace.events
    assert flood.kind == "flood"
    assert flood.mtype == "WAVE"
    assert flood.dst is None


def test_failed_unicast_recorded_as_undelivered():
    ctx, nodes = make_net()
    nodes[2].kill()
    ctx.topology.invalidate()
    trace = sends().attach(ctx.obs)
    ctx.transport.send(nodes[0], nodes[2], Message("PING", 0, 2),
                       category=Category.CONFIG)
    trace.detach()
    (event,) = trace.events
    assert event.kind == "unicast" and not event.delivered


def test_etype_filter():
    ctx, nodes = make_net()
    trace = sends().attach(ctx.obs)
    everything = TraceRecorder().attach(ctx.obs)
    ctx.transport.send(nodes[0], nodes[1], Message("KEEP", 0, 1),
                       category=Category.CONFIG)
    ctx.obs.emit(RoleAssigned(time=0.0, node=0, corr=0, role="head",
                              address=0, network_id=1))
    trace.detach()
    everything.detach()
    assert [e.etype for e in trace.events] == ["message.send"]
    assert [e.etype for e in everything.events] == [
        "message.send", "role.assign"]


def test_detach_silences_recording():
    ctx, nodes = make_net()
    assert not ctx.obs  # no subscribers: bus stays falsy
    trace = sends().attach(ctx.obs)
    assert ctx.obs
    trace.detach()
    assert not ctx.obs
    # Sends after detach are not recorded.
    ctx.transport.send(nodes[0], nodes[1], Message("PING", 0, 1),
                       category=Category.CONFIG)
    assert len(trace) == 0
    # Detaching twice is harmless.
    trace.detach()


def test_double_attach_rejected():
    ctx, _ = make_net()
    trace = sends().attach(ctx.obs)
    with pytest.raises(RuntimeError):
        trace.attach(ctx.obs)
    trace.detach()


def test_context_manager_detaches():
    ctx, nodes = make_net()
    with sends().attach(ctx.obs) as trace:
        ctx.transport.send(nodes[0], nodes[1], Message("A", 0, 1),
                           category=Category.CONFIG)
    assert len(trace) == 1
    assert not ctx.obs


def test_limit_bounds_memory_and_counts_truncated():
    ctx, nodes = make_net()
    trace = sends(limit=2).attach(ctx.obs)
    for _ in range(5):
        ctx.transport.send(nodes[0], nodes[1], Message("A", 0, 1),
                           category=Category.CONFIG)
    trace.detach()
    assert len(trace) == 2
    assert trace.truncated == 3


def test_event_str_renders():
    ctx, nodes = make_net()
    trace = sends().attach(ctx.obs)
    ctx.transport.send(nodes[0], nodes[1], Message("PING", 0, 1),
                       category=Category.CONFIG)
    trace.detach()
    text = str(trace.events[0])
    assert "PING" in text and "unicast" in text
