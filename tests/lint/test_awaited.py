"""Every request whose sender keeps state until the reply comes is
awaited.

A row's ``awaited`` in :data:`repro.core.messages.TABLE` names, per such
request, the kind of the awaited reply that closes it: the ``(kind,
id)`` entry its sender arms with ``self._await``
(:class:`repro.net.agent.Agent`).  The ``state-machine`` rule holds
every input of the agent that sends one to arming that kind, unless
the send is one of ``UNAWAITED_SENDS``; the first test holds the real
agent to that.  The others pin what the rule cannot see from one input:

* every awaited request is sent somewhere, and every exemption names a
  send that is still there;
* what the awaited exchanges themselves send (a method that arms an
  awaited reply, or an awaited reply's expiry) is awaited, except
  ``REC_DELEGATE``: the one request with no closer yet.  Giving it one
  (ROADMAP, "Every reply the protocol waits for", step 2) flips that
  test.
"""

import ast

from repro.core import messages as m
from tests.lint import rules
from tests.lint import protocol_spec as spec

AGENT = ("repro.core.protocol", "QuorumProtocolAgent")
#: The requests whose sender awaits the reply.
STATEFUL = {key for key, row in m.TABLE.items() if row.awaited}


def _agent(graph):
    mod = graph.module(AGENT[0])
    return mod, mod.classes[AGENT[1]]


def test_every_awaited_request_is_sent_with_its_wait_armed(repo_graph):
    assert [f.message for f in rules.check(rules.state_machine, repo_graph)
            if "without awaiting" in f.message] == []


def test_every_awaited_row_is_sent_and_every_exemption_is_live(repo_graph):
    mod, cls = _agent(repo_graph)
    sent = set()
    for entry in rules.entry_points(rules.agent_classes(repo_graph, cls)):
        sent |= rules.closure(repo_graph, mod, cls, entry,
                              rules.direct_sends)
    assert STATEFUL <= sent
    for method, request in spec.UNAWAITED_SENDS:
        located = repo_graph.method_lookup(mod, cls, method)
        assert located is not None, f"{method} is gone"
        assert request in rules.direct_sends(located[1], located[0])
        assert m.TABLE[request].awaited is not None


def test_rec_delegate_is_the_one_request_with_no_closer(repo_graph):
    """A request is what a step of an awaited exchange sends: the
    messages sent directly by a method that arms an awaited reply, or
    by an awaited reply's expiry."""
    mod, cls = _agent(repo_graph)
    steps = set()
    for owner in rules.agent_classes(repo_graph, cls):
        for name, info in owner.methods.items():
            calls = rules.await_calls(info)
            if calls:
                steps.add(name)
            steps |= {call.args[2].attr for call in calls
                      if len(call.args) > 2
                      and isinstance(call.args[2], ast.Attribute)}
    requests = set()
    for step in steps:
        located = repo_graph.method_lookup(mod, cls, step)
        assert located is not None, f"{step} is not a method of the agent"
        requests |= set(rules.direct_sends(located[1], located[0]))
    assert requests & set(m.ALL_TYPES) - STATEFUL == {m.REC_DELEGATE}


def test_a_request_sent_with_no_wait_is_caught(tree):
    tree.write("src/repro/core/messages.py", """\
        COM_REQ = "COM_REQ"
        CH_REQ = "CH_REQ"
        COM_NACK = "COM_NACK"
        CH_NACK = "CH_NACK"

        TABLE = {
            COM_REQ: Row(awaited="retry"),
            CH_REQ: Row(awaited="retry"),
            COM_NACK: Row(sends=(COM_REQ,)),
            CH_NACK: Row(sends=(CH_REQ,)),
        }
        """)
    tree.write("src/repro/core/seeded.py", """\
        from repro.core import messages as m


        class Seeded:
            def _handle_com_nack(self, msg):
                self._send(msg.src, m.COM_REQ, {})

            def _handle_ch_nack(self, msg):
                self._send(msg.src, m.CH_REQ, {})
                self._await(("retry", None), 1.0, self._handle_ch_nack)
        """)
    assert [f.message for f in tree.findings(rules.state_machine)] == [
        "Seeded._handle_com_nack sends COM_REQ without awaiting 'retry'"]
