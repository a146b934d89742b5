"""hop-bound rule: every topology hop query states its bound."""

from tests.lint import rules


def test_unbounded_queries_flagged(tree):
    tree.write("src/repro/core/bad.py", """\
        def scan(topo, a, b):
            topo.hops(a, b)
            topo.reachable(a)
        """)
    findings = tree.findings(rules.hop_bound)
    assert len(findings) == 2
    assert all(f.rule == "hop-bound" for f in findings)


def test_explicit_bounds_clean(tree):
    # Outside repro.core/repro.quorum, where max_hops=None may flood.
    tree.write("src/repro/net/good.py", """\
        def scan(topo, a, b, k):
            topo.hops(a, b, 4)
            topo.hops(a, b, max_hops=None)
            topo.reachable(a, max_hops=2)
            topo.reachable(a, max_hops=None)
            topo.within_hops(a, k)
            topo.within_hops(a, k=2)
        """)
    assert tree.findings(rules.hop_bound) == []


def test_hop_bound_applies_outside_repro_modules_too(tree):
    tree.write("examples/demo.py", """\
        def scan(topo, a):
            return topo.reachable(a)
        """)
    assert len(tree.findings(rules.hop_bound)) == 1


def test_no_module_is_exempt(tree):
    tree.write("src/repro/net/oracle.py", """\
        class OracleTopology:
            def eccentricity(self, a):
                return max(self.reachable(a).values())
        """)
    assert len(tree.findings(rules.hop_bound)) == 1


def test_unrelated_attributes_not_flagged(tree):
    tree.write("src/repro/core/good.py", """\
        def stats(result):
            return result.avg_config_latency_hops(), result.stats_hops
        """)
    assert tree.findings(rules.hop_bound) == []


def test_nearest_without_bound_flagged(tree):
    tree.write("src/repro/net/bad.py", """\
        def closest(topo, a, accept):
            return topo.nearest(a, accept)
        """)
    findings = tree.findings(rules.hop_bound)
    assert len(findings) == 1
    assert "max_hops" in findings[0].message


def test_nearest_with_explicit_bound_clean(tree):
    tree.write("src/repro/net/good.py", """\
        def closest(topo, a, accept, k):
            topo.nearest(a, accept, k)
            topo.nearest(a, accept, max_hops=2)
            return topo.nearest(a, accept, max_hops=None)
        """)
    assert tree.findings(rules.hop_bound) == []
