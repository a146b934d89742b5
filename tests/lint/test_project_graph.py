"""The whole-program layer: import tables, symbol tables, self-call edges.

These tests exercise :mod:`repro.lint.project` directly — the graph the
cross-module rules (tested in ``test_project_rules.py``) are built on.
Fixture trees are laid out ``src/repro/...`` so module-name inference
matches the real checkout.
"""

from repro.lint.engine import iter_python_files, parse_context
from repro.lint.project import (ProjectGraph, package_of,
                                strongly_connected_components)
from repro.lint.rules import _Dispatch, closure, direct_sends


def build_graph(tree) -> ProjectGraph:
    files = iter_python_files([tree.root])
    return ProjectGraph([parse_context(p, root=tree.root) for p in files])


def test_package_of():
    assert package_of("repro.net.grid") == "repro.net"
    assert package_of("repro.net") == "repro.net"
    assert package_of("repro") == "repro"


def test_import_table_aliases_and_from_imports(tree):
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m
        import repro.sim
        from repro.net.message import Message as Msg

        def f():
            return Msg, m.COM_REQ
        """)
    graph = build_graph(tree)
    mod = graph.module("repro.core.agent")
    assert mod is not None
    assert mod.resolve("m.COM_REQ") == "repro.core.messages.COM_REQ"
    assert mod.resolve("Msg") == "repro.net.message.Message"
    assert mod.resolve("repro.sim.clock") == "repro.sim.clock"
    assert mod.resolve("unknown_name") is None


def test_import_scopes_top_level_vs_gated(tree):
    tree.write("src/repro/core/agent.py", """\
        from typing import TYPE_CHECKING

        import repro.sim

        if TYPE_CHECKING:
            from repro.net.grid import Grid

        def lazily():
            from repro.obs import events
            return events
        """)
    graph = build_graph(tree)
    table = graph.module("repro.core.agent").imports
    assert "repro.sim" in table.top_level
    assert "repro.net.grid" not in table.top_level
    assert "repro.obs" not in table.top_level
    # Gated and lazy imports are no runtime edges, but still name things.
    assert table.resolve("Grid") == "repro.net.grid.Grid"
    assert table.resolve("events") == "repro.obs.events"


def test_relative_imports_resolve_against_package(tree):
    tree.write("src/repro/net/grid.py", """\
        from . import util
        from .message import Message
        from ..sim import clock
        """)
    graph = build_graph(tree)
    table = graph.module("repro.net.grid").imports
    assert "repro.net" in table.top_level
    assert "repro.net.message" in table.top_level
    assert "repro.sim" in table.top_level
    assert table.names["Message"] == "repro.net.message.Message"


def test_constants_and_method_aliases(tree):
    tree.write("src/repro/core/agent.py", """\
        COM_REQ = "com-req"
        ANNOTATED: str = "annotated"
        NOT_A_STRING = 7

        class Agent:
            def _handle_com_nack(self, msg):
                return msg

            _handle_ch_nack = _handle_com_nack
        """)
    graph = build_graph(tree)
    mod = graph.module("repro.core.agent")
    assert mod.constants == {"COM_REQ": "com-req", "ANNOTATED": "annotated"}
    cls = mod.classes["Agent"]
    # The alias points at the *same* FunctionInfo, so closures
    # (send/event extraction) follow it without special cases.
    assert cls.methods["_handle_ch_nack"] is cls.methods["_handle_com_nack"]


def test_method_lookup_walks_mixin_bases(tree):
    tree.write("src/repro/core/base.py", """\
        class ConfigMixin:
            def _commit(self):
                pass
        """)
    tree.write("src/repro/core/agent.py", """\
        from repro.core.base import ConfigMixin

        class Agent(ConfigMixin):
            def run(self):
                self._commit()
        """)
    graph = build_graph(tree)
    mod = graph.module("repro.core.agent")
    cls = mod.classes["Agent"]
    located = graph.method_lookup(mod, cls, "_commit")
    assert located is not None
    found_mod, info = located
    assert found_mod.name == "repro.core.base"
    assert info is found_mod.classes["ConfigMixin"].methods["_commit"]


def test_import_edges_are_repro_only_with_linenos(tree):
    tree.write("src/repro/core/agent.py", """\
        import json
        import repro.sim
        from repro.net.message import Message
        """)
    graph = build_graph(tree)
    edges = {(src, dst): line for src, dst, line in graph.import_edges()}
    assert ("repro.core.agent", "repro.sim") in edges
    assert edges[("repro.core.agent", "repro.net.message")] == 3
    assert all(dst.startswith("repro") for (_, dst) in edges)


def test_strongly_connected_components():
    edges = {
        "a": {"b"},
        "b": {"c"},
        "c": {"a"},
        "d": {"a"},
        "e": set(),
    }
    components = strongly_connected_components(edges)
    cyclic = [sorted(c) for c in components if len(c) > 1]
    assert cyclic == [["a", "b", "c"]]


def test_dispatch_bounces_through_composed_subclass(tree):
    # ``self._notify()`` inside a mix-in has no ``_notify`` on the
    # mix-in itself; at runtime it dispatches on the composed agent.
    tree.write("src/repro/core/mixin.py", """\
        import repro.core.messages as m

        class VoteMixin:
            def _handle_quorum_clt(self, msg):
                self._notify(msg)
        """)
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m
        from repro.core.mixin import VoteMixin

        class Agent(VoteMixin):
            def _notify(self, msg):
                self._send(msg.src, m.QUORUM_CFM)
        """)
    graph = build_graph(tree)
    mixin_mod = graph.module("repro.core.mixin")
    mixin_cls = mixin_mod.classes["VoteMixin"]
    dispatch = _Dispatch(graph)
    located = dispatch.resolve(mixin_mod, mixin_cls, "_notify")
    assert located is not None
    assert located[1] is graph.module("repro.core.agent").classes[
        "Agent"].methods["_notify"]
    sends = closure(graph, mixin_mod, mixin_cls, "_handle_quorum_clt",
                    direct_sends, dispatch=dispatch)
    assert set(sends) == {"QUORUM_CFM"}


def test_send_closure_is_transitive_and_cycle_safe(tree):
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m
        from repro.net.message import Message

        class Agent:
            def _handle_com_req(self, msg):
                self._start_vote(msg)
                self._start_vote(msg)  # revisit must not loop

            def _start_vote(self, msg):
                self._send(msg.src, m.QUORUM_CLT)
                self._maybe_flood()

            def _maybe_flood(self):
                self._start_vote(None)  # cycle back
                flood = Message(mtype=m.QUORUM_UPD, src=0)
                return flood

            def _compare_only(self, msg):
                return msg.mtype == m.COM_NACK
        """)
    graph = build_graph(tree)
    mod = graph.module("repro.core.agent")
    cls = mod.classes["Agent"]
    sends = closure(graph, mod, cls, "_handle_com_req", direct_sends)
    # QUORUM_CLT via the helper, QUORUM_UPD via Message(mtype=...);
    # the comparison in _compare_only is not a send and is unreachable.
    assert set(sends) == {"QUORUM_CLT", "QUORUM_UPD"}
