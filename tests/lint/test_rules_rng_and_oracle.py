"""determinism (generator construction) and no-oracle-import rules."""


# --- determinism: generators ----------------------------------------


def test_random_random_flagged_outside_sim_rng(tree):
    tree.write("src/repro/core/bad.py", """\
        import random

        def make(seed: int):
            return random.Random(seed)
        """)
    findings = tree.findings(select={"determinism"})
    assert len(findings) == 1
    assert findings[0].rule == "determinism"


def test_from_import_random_and_systemrandom_flagged(tree):
    tree.write("src/repro/mobility/bad.py", """\
        from random import Random, SystemRandom

        a = Random(1)
        b = SystemRandom()
        """)
    assert len(tree.findings(select={"determinism"})) == 2


def test_sim_rng_module_is_the_blessed_home(tree):
    tree.write("src/repro/sim/rng.py", """\
        import random

        def generator_from_seed(seed: int) -> random.Random:
            return random.Random(seed)
        """)
    assert tree.findings(select={"determinism"}) == []


def test_stream_consumers_not_flagged(tree):
    tree.write("src/repro/core/good.py", """\
        def draw(streams):
            return streams.get("mobility").random()
        """)
    assert tree.findings(select={"determinism"}) == []


# --- no-oracle-import ------------------------------------------------


def test_numpy_networkx_and_oracle_imports_flagged(tree):
    tree.write("src/repro/core/bad.py", """\
        import numpy
        import networkx as nx
        from repro.net.oracle import OracleTopology
        from repro.net import oracle
        """)
    findings = tree.findings(select={"no-oracle-import"})
    assert len(findings) == 4
    assert all(f.rule == "no-oracle-import" for f in findings)


def test_only_the_oracle_module_is_exempt(tree):
    tree.write("src/repro/net/oracle.py", """\
        import networkx as nx
        import numpy as np
        """)
    assert tree.findings(select={"no-oracle-import"}) == []
    # No harness carve-out: repro.perf is runtime like everything else.
    tree.write("src/repro/perf/probe.py", """\
        def run():
            from repro.net.oracle import OracleTopology
            return OracleTopology
        """)
    findings = tree.findings(select={"no-oracle-import"})
    assert [f.path.endswith("perf/probe.py") for f in findings] == [True]


def test_runtime_imports_not_flagged(tree):
    tree.write("src/repro/core/good.py", """\
        from repro.net.topology import Topology
        from repro.net import topology
        import json
        """)
    assert tree.findings(select={"no-oracle-import"}) == []
