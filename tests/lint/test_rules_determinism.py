"""determinism rule: wall clocks and global randomness stay out of the
simulation packages."""


def _rules(findings):
    return sorted({f.rule for f in findings})


def test_time_time_flagged_in_core(tree):
    tree.write("src/repro/core/bad.py", """\
        import time

        def stamp() -> float:
            return time.time()
        """)
    findings = tree.findings(select={"determinism"})
    assert len(findings) == 1
    assert findings[0].rule == "determinism"
    assert "time.time" in findings[0].message
    assert findings[0].line == 4


def test_perf_counter_and_aliased_import_flagged(tree):
    tree.write("src/repro/net/bad.py", """\
        import time as clock

        def t() -> float:
            return clock.perf_counter()
        """)
    assert len(tree.findings(select={"determinism"})) == 1


def test_from_import_perf_counter_flagged(tree):
    tree.write("src/repro/sim/bad.py", """\
        from time import perf_counter

        def t() -> float:
            return perf_counter()
        """)
    findings = tree.findings(select={"determinism"})
    # One for the import's binding use; anchored to the call site too.
    assert findings and all(f.rule == "determinism" for f in findings)


def test_module_level_random_flagged(tree):
    tree.write("src/repro/baselines/bad.py", """\
        import random

        def pick(xs):
            return random.choice(xs)
        """)
    findings = tree.findings(select={"determinism"})
    assert len(findings) == 1
    assert "random.choice" in findings[0].message


def test_datetime_now_flagged_both_import_styles(tree):
    tree.write("src/repro/cluster/bad.py", """\
        import datetime
        from datetime import datetime as dt

        def a():
            return datetime.datetime.now()

        def b():
            return dt.now()
        """)
    findings = tree.findings(select={"determinism"})
    assert len(findings) == 2


def test_perf_and_sweep_are_allowlisted(tree):
    source = """\
        import time

        def t() -> float:
            return time.perf_counter()
        """
    tree.write("src/repro/perf/timers.py", source)
    tree.write("src/repro/perf/sub/inner.py", source)
    tree.write("src/repro/experiments/sweep.py", source)
    assert tree.findings(select={"determinism"}) == []


def test_sim_clock_and_stream_usage_not_flagged(tree):
    tree.write("src/repro/core/good.py", """\
        def stamp(ctx) -> float:
            return ctx.sim.now

        def pick(rng, xs):
            return rng.choice(xs)
        """)
    assert tree.findings(select={"determinism"}) == []


def test_non_repro_files_out_of_scope(tree):
    tree.write("examples/demo.py", """\
        import time

        print(time.time())
        """)
    assert tree.findings(select={"determinism"}) == []


def test_uuid_import_in_obs_flagged(tree):
    tree.write("src/repro/obs/bus.py", """\
        import uuid

        def new_correlation():
            return uuid.uuid4()
        """)
    findings = tree.findings(select={"determinism"})
    assert len(findings) == 1
    assert "uuid" in findings[0].message


def test_entropy_and_generators_keep_their_own_scopes(tree):
    # Entropy imports follow the wall-clock exemptions; generator
    # construction does not: repro.perf may time, not build generators.
    tree.write("src/repro/experiments/tags.py", """\
        from secrets import token_hex
        """)
    tree.write("src/repro/perf/probe.py", """\
        import random
        import uuid

        rng = random.Random(0)
        """)
    findings = tree.findings(select={"determinism"})
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/experiments/tags.py", 1), ("src/repro/perf/probe.py", 4)]
