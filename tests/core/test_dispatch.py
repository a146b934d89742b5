"""Message dispatch is a per-class dict derived from ``messages.TABLE``'s
message rows.

The agent base, ``repro.net.agent.Agent``, gathers ``_handle_<mtype>``
methods into ``cls._handlers`` when a class is created;
``QuorumProtocolAgent`` names ``messages.ALL_TYPES`` as its vocabulary,
so a handler without a table row (or a row without a handler) fails at
import, not in review.
"""

import pytest

from repro.core import messages as m
from repro.core.protocol import QuorumProtocolAgent
from repro.experiments.runner import PROTOCOLS
from repro.net.message import Message

from tests.helpers import add_node, make_ctx

BASELINE_AGENTS = [
    cls for cls in PROTOCOLS.values() if cls is not QuorumProtocolAgent]


def handler_names(cls):
    """Every ``_handle_*`` attribute name on ``cls``, mixins included."""
    return {name for klass in cls.__mro__ for name in vars(klass)
            if name.startswith("_handle_")}


def test_every_row_has_its_handler_and_every_handler_a_row():
    assert set(QuorumProtocolAgent._handlers) == set(m.ALL_TYPES)
    assert handler_names(QuorumProtocolAgent) == {
        f"_handle_{mtype.lower()}" for mtype in m.ALL_TYPES}
    for mtype, handler in QuorumProtocolAgent._handlers.items():
        assert handler is getattr(QuorumProtocolAgent,
                                  f"_handle_{mtype.lower()}")


def test_aliased_handlers_dispatch_to_the_shared_function():
    handlers = QuorumProtocolAgent._handlers
    assert handlers[m.CH_NACK] is handlers[m.COM_NACK]
    assert handlers[m.CH_DECLINE] is handlers[m.COM_DECLINE]


def test_unlisted_handler_raises_at_class_creation():
    with pytest.raises(TypeError, match=r"unlisted types: \['BOGUS'\]"):
        class Extended(QuorumProtocolAgent):
            def _handle_bogus(self, msg):
                pass


def test_dropped_handler_raises_at_class_creation():
    with pytest.raises(TypeError,
                       match=r"types without a handler: \['COM_ACK'\]"):
        class Reduced(QuorumProtocolAgent):
            _handle_com_ack = None


class Recording(QuorumProtocolAgent):
    """Overriding a listed handler is fine: the subclass gets its own
    dispatch dict."""

    def __init__(self, ctx, node):
        super().__init__(ctx, node)
        self.seen = []

    def _handle_com_ack(self, msg):
        self.seen.append(msg.mtype)


def recording_agent():
    ctx = make_ctx()
    node = add_node(ctx, 0, 100.0).node
    return Recording(ctx, node)


def test_subclass_override_is_dispatched():
    agent = recording_agent()
    agent.on_message(Message(mtype=m.COM_ACK, src=1, dst=0))
    assert agent.seen == [m.COM_ACK]
    assert (QuorumProtocolAgent._handlers[m.COM_ACK]
            is QuorumProtocolAgent._handle_com_ack)


def test_unknown_mtype_is_ignored():
    agent = recording_agent()
    agent.on_message(Message(mtype="NO_SUCH_TYPE", src=1, dst=0))
    assert agent.seen == []


def test_delivery_to_dead_node_is_ignored():
    agent = recording_agent()
    agent.node.kill()
    agent.on_message(Message(mtype=m.COM_ACK, src=1, dst=0))
    assert agent.seen == []


@pytest.mark.parametrize("cls", BASELINE_AGENTS, ids=lambda c: c.__name__)
def test_baseline_dispatch_equals_its_handlers(cls):
    assert cls._handlers, f"{cls.__name__} handles nothing"
    assert {f"_handle_{mtype.lower()}" for mtype in cls._handlers} == (
        handler_names(cls))
    for mtype, handler in cls._handlers.items():
        assert handler is getattr(cls, f"_handle_{mtype.lower()}")
