"""determinism (generator construction), and layering's ban on the
test-only numpy/networkx."""

from tests.lint import rules


# --- determinism: generators ----------------------------------------


def test_random_random_flagged_outside_sim_rng(tree):
    tree.write("src/repro/core/bad.py", """\
        import random

        def make(seed: int):
            return random.Random(seed)
        """)
    findings = tree.findings(rules.determinism)
    assert len(findings) == 1
    assert findings[0].rule == "determinism"


def test_from_import_random_and_systemrandom_flagged(tree):
    tree.write("src/repro/mobility/bad.py", """\
        from random import Random, SystemRandom

        a = Random(1)
        b = SystemRandom()
        """)
    assert len(tree.findings(rules.determinism)) == 2


def test_sim_rng_module_is_the_blessed_home(tree):
    tree.write("src/repro/sim/rng.py", """\
        import random

        def generator_from_seed(seed: int) -> random.Random:
            return random.Random(seed)
        """)
    assert tree.findings(rules.determinism) == []


def test_stream_consumers_not_flagged(tree):
    tree.write("src/repro/core/good.py", """\
        def draw(streams):
            return streams.get("mobility").random()
        """)
    assert tree.findings(rules.determinism) == []


# --- layering: numpy and networkx are test-only ---------------------


def test_numpy_and_networkx_imports_break_layering(tree):
    tree.write("src/repro/core/bad.py", """\
        import numpy
        import networkx as nx
        from numpy.linalg import norm
        """)
    findings = tree.findings(rules.layering)
    assert len(findings) == 3
    assert all(f.rule == "layering" for f in findings)


def test_no_runtime_module_may_import_numpy_or_networkx(tree):
    tree.write("src/repro/net/oracle.py", """\
        import networkx as nx
        import numpy as np
        """)
    # Not even lazily, and with no harness carve-out.
    tree.write("src/repro/perf/probe.py", """\
        def run():
            from networkx import Graph
            return Graph
        """)
    findings = tree.findings(rules.layering)
    assert sorted(f.path.rsplit("/", 1)[-1] for f in findings) == [
        "oracle.py", "oracle.py", "probe.py"]


def test_runtime_imports_not_flagged(tree):
    tree.write("src/repro/core/good.py", """\
        from repro.net.topology import Topology
        from repro.net import topology
        import json
        """)
    assert tree.findings(rules.layering) == []
