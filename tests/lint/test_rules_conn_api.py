"""hop-bound rule, protocol half: code must not re-grow the unbounded BFS.

The incremental connectivity layer replaced every
``reachable(..., max_hops=None)`` / ``hops(..., max_hops=None)`` call
in ``repro.core`` / ``repro.quorum`` with O(1)/O(component) label
queries.  The rule keeps it that way; engine, bench, and oracle code
may still flood deliberately.
"""


def test_unbounded_queries_flagged_in_core(tree):
    tree.write("src/repro/core/bad.py", """\
        def scan(topo, nid):
            near = topo.hops(nid, max_hops=None)
            far = topo.reachable(nid, max_hops=None)
            return near, far
        """)
    findings = tree.findings(select={"hop-bound"})
    assert len(findings) == 2
    assert [f.line for f in findings] == [2, 3]
    assert "same_component" in findings[0].message


def test_unbounded_queries_flagged_in_quorum(tree):
    tree.write("src/repro/quorum/bad.py", """\
        def members(topo, nid):
            return topo.reachable(nid, max_hops=None)
        """)
    assert len(tree.findings(select={"hop-bound"})) == 1


def test_bounded_queries_not_flagged(tree):
    tree.write("src/repro/core/good.py", """\
        def scan(topo, nid, k):
            a = topo.reachable(nid, max_hops=3)
            b = topo.hops(nid, max_hops=k)
            c = topo.reachable(nid)
            return a, b, c
        """)
    # Only c, and for the rule's other half: it states no bound at all.
    findings = tree.findings(select={"hop-bound"})
    assert [f.line for f in findings] == [4]
    assert "without a hop bound" in findings[0].message


def test_label_queries_not_flagged(tree):
    tree.write("src/repro/core/good.py", """\
        def scan(topo, a, b):
            if topo.same_component(a, b):
                return topo.component_members(a)
            return []
        """)
    assert tree.findings(select={"hop-bound"}) == []


def test_non_protocol_packages_out_of_scope(tree):
    # The engine's own BFS helpers and instrument code may flood.
    tree.write("src/repro/net/topology_helper.py", """\
        def walk(topo, nid):
            return topo.reachable(nid, max_hops=None)
        """)
    tree.write("src/repro/perf/flood_probe.py", """\
        def walk(topo, nid):
            return topo.reachable(nid, max_hops=None)
        """)
    assert tree.findings(select={"hop-bound"}) == []
