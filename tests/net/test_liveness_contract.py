"""Every liveness write is announced to the topology.

The component table (``NetworkContext.component_entry``) reads
``node.alive`` only for the nodes a hook noted and for everyone when
the graph version moves, and the periodic polls skip while the graph
is current.  Both rely on one contract: a write of ``.alive`` or a
``.kill()`` is followed, in the same function, by
``invalidate_nodes(`` or ``remove_node(``, which makes the next query
refresh the graph.  ``Node`` itself, which owns the flag
(``self.alive``), is exempt.
"""

import ast

import pytest

ANNOUNCE = {"invalidate_nodes", "remove_node"}


def _is_self(expr):
    return isinstance(expr, ast.Name) and expr.id == "self"


def liveness_writes(tree):
    """``(line, announced)`` per liveness write: whether an announcement
    follows it in the same function."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        writes, announced = [], []
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                writes += [node.lineno for target in targets
                           if isinstance(target, ast.Attribute)
                           and target.attr == "alive"
                           and not _is_self(target.value)]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)):
                if node.func.attr == "kill" and not _is_self(node.func.value):
                    writes.append(node.lineno)
                elif node.func.attr in ANNOUNCE:
                    announced.append(node.lineno)
        found += [(line, any(after > line for after in announced))
                  for line in writes]
    return sorted(set(found))


def unannounced(tree):
    return [line for line, announced in liveness_writes(tree)
            if not announced]


def test_every_liveness_write_in_the_program_is_announced(program_files):
    writes = 0
    for relpath, ctx in program_files.items():
        assert unannounced(ctx.tree) == [], relpath
        writes += len(liveness_writes(ctx.tree))
    # At least the fault model's crash and restart and the agent's
    # power-off.
    assert writes >= 3


@pytest.mark.parametrize("source", [
    "def crash(node):\n    node.alive = False\n",
    "def crash(topo, node):\n    topo.invalidate_nodes([node])\n"
    "    node.alive = False\n",
    "def leave(self):\n    self.node.kill()\n",
    "def revive(nodes):\n    for node in nodes:\n        node.alive = True\n",
], ids=["no-announcement", "announced-before", "kill", "in-a-loop"])
def test_each_unannounced_write_is_caught(source):
    assert len(unannounced(ast.parse(source))) == 1


@pytest.mark.parametrize("source", [
    "def crash(topo, node):\n    node.alive = False\n"
    "    topo.invalidate_nodes([node.node_id])\n",
    "def leave(self):\n    self.node.kill()\n"
    "    self.ctx.topology.remove_node(self.node)\n",
    "class Node:\n    def kill(self):\n        self.alive = False\n",
    "def alive(node):\n    return node.alive\n",
], ids=["invalidated", "removed", "the-owner", "a-read"])
def test_announced_writes_and_reads_pass(source):
    assert unannounced(ast.parse(source)) == []
