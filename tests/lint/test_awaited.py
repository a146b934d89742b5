"""Every request whose sender keeps state until the reply comes is
awaited.

``AWAITED`` in :mod:`repro.core.messages` names, per such request, the
kind of the awaited reply that closes it: the ``(kind, id)`` entry its
sender arms with ``self._await`` (:class:`repro.net.agent.Agent`).
These checks read the quorum agent's parsed source through
:func:`tests.lint.rules.closure`:

* every entry point of the agent (a message handler, a method handed
  out as a callback, the surface the runner drives) whose closure sends
  an ``AWAITED`` request reaches an ``_await`` of that request's kind,
  unless the send is one of :data:`UNAWAITED_SENDS`;
* what the awaited exchanges themselves send (a method that arms an
  awaited reply, or an awaited reply's expiry) has a row, except
  ``REC_DELEGATE``: the one request with no closer yet.  Giving it one
  (ROADMAP, "Every reply the protocol waits for", step 2) flips that
  test.
"""

import ast

from repro.core import messages as m
from tests.lint.core import dotted_source
from tests.lint.rules import closure, direct_sends

AGENT = ("repro.core.protocol", "QuorumProtocolAgent")

#: Sends of an ``AWAITED`` type that nothing awaits, because the sender
#: keeps no state the reply would settle.
UNAWAITED_SENDS = {
    ("_relay_or_nack", m.COM_REQ):
        "a dry head relays the request; the requester's retry closes it",
    ("_return_resources_for_rejoin", m.RETURN_ADDR):
        "a rejoining node returns its address and leaves either way",
}


def _agent_classes(graph, mod, cls):
    """``cls`` and every scanned class it inherits, mix-ins included."""
    found, stack = [], [(mod, cls)]
    while stack:
        cur_mod, cur_cls = stack.pop()
        if any(cur_cls is seen for _mod, seen in found):
            continue
        found.append((cur_mod, cur_cls))
        stack += [located for located in map(graph.class_of_target,
                                             cur_cls.bases) if located]
    return found


def _await_calls(info):
    return [node for node in info.nodes if isinstance(node, ast.Call)
            and dotted_source(node.func) == "self._await" and node.args]


def _key_kind(graph, mod, key):
    """The kind of an ``_await`` key: a ``("kind", id)`` literal, or a
    name bound to one in this module or the module it is imported from."""
    if isinstance(key, ast.Name):
        literal = mod.assignments.get(key.id)
        origin = mod.imports.resolve(key.id)
        if literal is None and origin is not None:
            owner = graph.module_of_target(origin)
            if owner is not None:
                literal = owner.assignments.get(origin.rpartition(".")[2])
        key = literal
    if (isinstance(key, ast.Tuple) and key.elts
            and isinstance(key.elts[0], ast.Constant)):
        return key.elts[0].value
    return None


def _entry_points(graph, classes):
    """Methods something other than their own agent's code calls: the
    message handlers, the public surface, and every method referenced
    as ``self.<method>`` without being called there (a callback)."""
    methods = {name for _mod, cls in classes for name in cls.methods}
    entries = {name for name in methods
               if name.startswith("_handle_") or not name.startswith("_")}
    for _mod, cls in classes:
        for info in cls.methods.values():
            called = {id(node.func) for node in info.nodes
                      if isinstance(node, ast.Call)}
            entries |= {node.attr for node in info.nodes
                        if isinstance(node, ast.Attribute)
                        and id(node) not in called
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr in methods}
    return sorted(entries)


def unawaited_sends(graph, module, class_name):
    """``"<entry> sends <REQUEST> without awaiting <kind>"`` for every
    entry point of the agent class whose closure sends an ``AWAITED``
    request but reaches no ``_await`` of its kind."""
    mod = graph.module(module)
    cls = mod.classes[class_name]

    def sends(info, at):
        return {name: line for name, line in direct_sends(info, at).items()
                if (info.node.name, name) not in UNAWAITED_SENDS}

    def awaits(info, at):
        return {_key_kind(graph, at, call.args[0]): call.lineno
                for call in _await_calls(info)}

    failures = []
    for entry in _entry_points(graph, _agent_classes(graph, mod, cls)):
        armed = closure(graph, mod, cls, entry, awaits)
        for request in sorted(closure(graph, mod, cls, entry, sends)):
            kind = m.AWAITED.get(request)
            if kind is not None and kind not in armed:
                failures.append(f"{class_name}.{entry} sends {request} "
                                f"without awaiting {kind!r}")
    return failures


def test_every_awaited_request_is_sent_with_its_wait_armed(repo_graph):
    assert unawaited_sends(repo_graph, *AGENT) == []


def test_every_awaited_row_is_sent_and_every_exemption_is_live(repo_graph):
    mod = repo_graph.module(AGENT[0])
    cls = mod.classes[AGENT[1]]
    classes = _agent_classes(repo_graph, mod, cls)
    sent = set()
    for entry in _entry_points(repo_graph, classes):
        sent |= set(closure(repo_graph, mod, cls, entry, direct_sends))
    assert set(m.AWAITED) <= sent
    for method, request in UNAWAITED_SENDS:
        located = repo_graph.method_lookup(mod, cls, method)
        assert located is not None, f"{method} is gone"
        assert request in direct_sends(located[1], located[0])


def test_rec_delegate_is_the_one_request_with_no_closer(repo_graph):
    """A request is what a step of an awaited exchange sends: the
    messages sent directly by a method that arms an awaited reply, or
    by an awaited reply's expiry."""
    mod = repo_graph.module(AGENT[0])
    cls = mod.classes[AGENT[1]]
    steps = set()
    for _mod, owner in _agent_classes(repo_graph, mod, cls):
        for name, info in owner.methods.items():
            calls = _await_calls(info)
            if calls:
                steps.add(name)
            steps |= {call.args[2].attr for call in calls
                      if len(call.args) > 2
                      and isinstance(call.args[2], ast.Attribute)}
    requests = set()
    for step in steps:
        located = repo_graph.method_lookup(mod, cls, step)
        assert located is not None, f"{step} is not a method of the agent"
        requests |= set(direct_sends(located[1], located[0]))
    assert requests & set(m.TABLE) - set(m.AWAITED) == {m.REC_DELEGATE}


def test_a_request_sent_with_no_wait_is_caught(tree):
    tree.write("src/repro/core/seeded.py", """\
        from repro.core import messages as m


        class Seeded:
            def _handle_com_nack(self, msg):
                self._send(msg.src, m.COM_REQ, {})

            def _handle_ch_nack(self, msg):
                self._send(msg.src, m.CH_REQ, {})
                self._await(("retry", None), 1.0, self._handle_ch_nack)
        """)
    assert unawaited_sends(tree.graph(), "repro.core.seeded", "Seeded") == [
        "Seeded._handle_com_nack sends COM_REQ without awaiting 'retry'"]
