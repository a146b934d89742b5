"""Positive/negative fixtures for the five cross-module rules.

Each test writes a tmp ``src/repro/...`` tree shaped like the real
checkout and runs one rule over it via the shared ``tree`` fixture.
"""

from tests.lint import rules


def rules_of(findings):
    return sorted({f.rule for f in findings})


# The state-machine rule reads the input table from the *parsed*
# repro.core.messages module of the tree it lints, so every fixture
# tree carries its own.  The rows are a slice of the real table.
MESSAGES = """\
    COM_REQ = "COM_REQ"
    COM_CFG = "COM_CFG"
    COM_ACK = "COM_ACK"
    COM_DECLINE = "COM_DECLINE"
    QUORUM_CLT = "QUORUM_CLT"
    QUORUM_CFM = "QUORUM_CFM"
    QUORUM_UPD = "QUORUM_UPD"

    TABLE = {
        COM_REQ: Row(sends=(QUORUM_CLT,)),
        QUORUM_CLT: Row(sends=(QUORUM_CFM,)),
        QUORUM_CFM: Row(sends=(QUORUM_UPD, COM_CFG)),
        QUORUM_UPD: Row(),
        COM_CFG: Row(sends=(COM_ACK, COM_DECLINE)),
        COM_ACK: Row(),
    }
    """


def write_messages(tree, source=MESSAGES):
    tree.write("src/repro/core/messages.py", source)


# ---------------------------------------------------------------------------
# state-machine
# ---------------------------------------------------------------------------

def test_state_machine_flags_illegal_transition(tree):
    # COM_ACK is a pure sink in the table: its handler may send nothing.
    # Injecting a COM_REQ send out of it is the canonical illegal
    # transition the rule exists to catch.
    write_messages(tree)
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m

        class Agent:
            def _handle_com_ack(self, msg):
                self._send(msg.src, m.COM_REQ)
        """)
    findings = tree.findings(rules.state_machine)
    assert len(findings) == 1
    assert "may send COM_REQ" in findings[0].message
    assert "COM_ACK" in findings[0].message
    assert findings[0].path == "src/repro/core/agent.py"


def test_state_machine_catches_send_through_helper(tree):
    # The illegal send sits two helpers deep — only the transitive
    # closure sees it.
    write_messages(tree)
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m

        class Agent:
            def _handle_quorum_upd(self, msg):
                self._apply(msg)

            def _apply(self, msg):
                self._escalate(msg)

            def _escalate(self, msg):
                self._send(msg.src, m.COM_CFG)
        """)
    findings = tree.findings(rules.state_machine)
    assert len(findings) == 1
    assert "may send COM_CFG" in findings[0].message


def test_state_machine_accepts_legal_transitions(tree):
    write_messages(tree)
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m

        class Agent:
            def _handle_quorum_clt(self, msg):
                self._send(msg.src, m.QUORUM_CFM)

            def _handle_com_cfg(self, msg):
                ack = m.COM_ACK if msg.ok else m.COM_DECLINE
                self._send(msg.src, ack)
        """)
    assert tree.findings(rules.state_machine) == []


def test_state_machine_reads_rows_from_the_linted_tree(tree):
    # QUORUM_CLT -> QUORUM_CFM is legal in the real protocol; this
    # tree's table says QUORUM_CLT answers nothing, and the tree's table
    # is the one that counts.
    write_messages(tree, MESSAGES.replace(
        "QUORUM_CLT: Row(sends=(QUORUM_CFM,)),", "QUORUM_CLT: Row(),"))
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m

        class Agent:
            def _handle_quorum_clt(self, msg):
                self._send(msg.src, m.QUORUM_CFM)
        """)
    findings = tree.findings(rules.state_machine)
    assert [f.message for f in findings] == [
        "Agent._handle_quorum_clt may send QUORUM_CFM, which the state "
        "machine does not allow in response to QUORUM_CLT (allowed: none)"]
    assert findings[0].path == "src/repro/core/agent.py"


def test_state_machine_flags_unreadable_table(tree):
    # A row the rule cannot read syntactically must not pass silently.
    write_messages(tree, MESSAGES.replace(
        "QUORUM_UPD: Row(),", "QUORUM_UPD: frozenset(),"))
    findings = tree.findings(rules.state_machine)
    assert len(findings) == 1
    assert "TABLE must be a dict literal" in findings[0].message
    assert findings[0].path == "src/repro/core/messages.py"


def test_state_machine_skipped_without_messages_module(tree):
    # Linting one file on its own: no table in the graph, no verdict
    # (the registry rules behave the same without their registry).
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m

        class Agent:
            def _handle_com_ack(self, msg):
                self._send(msg.src, m.COM_REQ)
        """)
    assert tree.findings(rules.state_machine) == []


def test_state_machine_ignores_packages_outside_protocol(tree):
    # Baselines implement *other* papers' protocols; their handlers are
    # not governed by this spec.
    write_messages(tree)
    tree.write("src/repro/baselines/dad.py", """\
        import repro.core.messages as m

        class DadAgent:
            def _handle_com_ack(self, msg):
                self._send(msg.src, m.COM_REQ)
        """)
    assert tree.findings(rules.state_machine) == []


def test_state_machine_flags_an_input_with_no_row(tree):
    # A method handed out as a callback is an input of the agent too:
    # one that sends needs a row, keyed by its name.
    write_messages(tree)
    tree.write("src/repro/core/agent.py", """\
        import repro.core.messages as m

        class Agent:
            def on_enter(self):
                self._every(1.0, self._poll)

            def _poll(self):
                self._send(0, m.QUORUM_UPD)
        """)
    assert [f.message for f in tree.findings(rules.state_machine)] == [
        "Agent._poll sends or ends a span but has no row in "
        "repro.core.messages.TABLE"]
    write_messages(tree, MESSAGES.replace(
        "    }", '        "_poll": Row(sends=(QUORUM_UPD,)),\n    }'))
    assert tree.findings(rules.state_machine) == []


def test_state_machine_flags_a_row_no_input_has(tree):
    write_messages(tree, MESSAGES.replace(
        "    }", '        "_gone": Row(),\n    }'))
    findings = tree.findings(rules.state_machine)
    assert [f.message for f in findings] == [
        "TABLE row '_gone' is no input of any agent; delete it"]
    assert findings[0].path == "src/repro/core/messages.py"


# The rule reads the terminal events from the *parsed* repro.obs.events
# module of the tree it lints (each ``X.etype`` element of
# TERMINAL_ETYPES names class X).  Here COM_CFG's row ends
# ConfigCompleted, which a helper of its handler emits.
EVENTS = """\
    class ConfigAborted:
        etype = "config.abort"

    class ConfigCompleted:
        etype = "config.complete"

    TERMINAL_ETYPES = frozenset({ConfigCompleted.etype, ConfigAborted.etype})
    """

ENDS_EXACT = """\
    import repro.core.messages as m
    import repro.obs.events as ev

    class Agent:
        def _handle_com_cfg(self, msg):
            self._finish(msg)
            self._send(msg.src, m.COM_ACK)

        def _finish(self, msg):
            self.bus.emit(ev.ConfigCompleted(t=0.0, node=0))
    """


def span_findings(tree, events=EVENTS, agent=ENDS_EXACT):
    ended = MESSAGES.replace("COM_CFG: Row(sends=(COM_ACK, COM_DECLINE))",
                             "COM_CFG: Row(sends=(COM_ACK,), "
                             "ends=(ev.ConfigCompleted,))")
    write_messages(tree, "    import repro.obs.events as ev\n" + ended)
    tree.write("src/repro/obs/events.py", events)
    tree.write("src/repro/core/agent.py", agent)
    return [f.message for f in tree.findings(rules.state_machine)]


# The terminal-path tests keep the obs-coverage names they had before
# the check became part of each row's ``ends``.
def test_obs_coverage_terminal_path_clean_when_exact(tree):
    # The handler's closure emits exactly the terminal its row ends.
    assert span_findings(tree) == []


def test_obs_coverage_checks_terminal_path_emissions(tree):
    # Ending the span with ConfigAborted instead is one missing and one
    # extra terminal event.
    assert sorted(span_findings(tree, agent=ENDS_EXACT.replace(
        "ConfigCompleted", "ConfigAborted"))) == [
        "Agent._handle_com_cfg emits ConfigAborted, which its row does "
        "not say it ends",
        "Agent._handle_com_cfg never emits ConfigCompleted, which its row "
        "says it ends"]


def test_state_machine_reads_terminal_events_from_the_linted_tree(tree):
    # With ConfigCompleted left out of this tree's terminal set, the
    # handler ends one span too few.
    assert span_findings(tree, events=EVENTS.replace(
        "ConfigCompleted.etype, ", "")) == [
        "Agent._handle_com_cfg never emits ConfigCompleted, which its row "
        "says it ends"]


def test_state_machine_flags_unreadable_terminal_set(tree):
    findings = span_findings(tree, events=EVENTS.replace(
        "ConfigAborted.etype", '"config.abort"'))
    assert len(findings) == 1
    assert "TERMINAL_ETYPES must be" in findings[0]


# ---------------------------------------------------------------------------
# obs-coverage
# ---------------------------------------------------------------------------

def test_obs_coverage_flags_undeclared_emitter(tree):
    # ConfigCommitted may only be constructed by repro.core.protocol.
    tree.write("src/repro/experiments/report.py", """\
        import repro.obs.events as ev

        def summarize(bus, run):
            bus.emit(ev.ConfigCommitted(t=run.t, node=0))
        """)
    findings = tree.findings(rules.obs_coverage)
    assert len(findings) == 1
    assert "ConfigCommitted is constructed outside" in findings[0].message
    assert findings[0].path == "src/repro/experiments/report.py"


def test_obs_coverage_accepts_declared_emitter(tree):
    tree.write("src/repro/core/protocol.py", """\
        import repro.obs.events as ev

        class Agent:
            def _emit(self, bus):
                bus.emit(ev.ConfigCommitted(t=0.0, node=0))
        """)
    assert tree.findings(rules.obs_coverage) == []


def test_obs_coverage_reports_never_emitted_events(tree):
    # With the events module in the graph but no emitters anywhere,
    # every spec'd event is dead instrumentation.
    tree.write("src/repro/obs/events.py", """\
        class ConfigCommitted:
            etype = "config.commit"

        TERMINAL_ETYPES = frozenset({ConfigCommitted.etype})
        """)
    findings = tree.findings(rules.obs_coverage)
    assert findings, "expected never-emitted findings"
    assert all("never emitted" in f.message for f in findings)
    committed = [f for f in findings
                 if "event ConfigCommitted" in f.message]
    # The anchor is the class definition when the class exists.
    assert committed and committed[0].line == 1


# ---------------------------------------------------------------------------
# rng-taint
# ---------------------------------------------------------------------------

def test_rng_taint_flags_foreign_stream_consumption(tree):
    # ``faults.*`` streams belong to repro.faults.
    tree.write("src/repro/experiments/run.py", """\
        def drive(ctx):
            rng = ctx.streams.get("faults.drop")
            return rng.random()
        """)
    findings = tree.findings(rules.rng_taint)
    assert len(findings) == 1
    assert "belongs to repro.faults" in findings[0].message


def test_rng_taint_accepts_owned_stream(tree):
    tree.write("src/repro/faults/model.py", """\
        def arm(ctx, link):
            rng = ctx.streams.get(f"faults.drop.{link}")
            return rng
        """)
    tree.write("src/repro/experiments/scenario.py", """\
        def build(ctx):
            return ctx.streams.get("scenario")
        """)
    assert tree.findings(rules.rng_taint) == []


def test_rng_taint_flags_unowned_stream_name(tree):
    tree.write("src/repro/experiments/run.py", """\
        def drive(ctx):
            return ctx.streams.get("mystery-stream")
        """)
    findings = tree.findings(rules.rng_taint)
    assert len(findings) == 1
    assert "no declared owner" in findings[0].message


def test_rng_taint_flags_undeclared_generator_flow(tree):
    tree.write("src/repro/net/grid.py", """\
        def build(rng):
            return rng
        """)
    tree.write("src/repro/experiments/run.py", """\
        from repro.net import grid
        from repro.sim.rng import generator_from_seed

        def drive(seed):
            gen = generator_from_seed(seed)
            return grid.build(gen)
        """)
    findings = tree.findings(rules.rng_taint)
    assert len(findings) == 1
    assert "flows from repro.experiments into repro.net" in \
        findings[0].message


def test_rng_taint_accepts_declared_generator_flow(tree):
    # (repro.experiments, repro.mobility) is a declared flow: the
    # scenario layer drives mobility models with per-node streams.
    tree.write("src/repro/mobility/walk.py", """\
        def step(rng):
            return rng
        """)
    tree.write("src/repro/experiments/run.py", """\
        from repro.mobility import walk
        from repro.sim.rng import generator_from_seed

        def drive(seed):
            gen = generator_from_seed(seed)
            return walk.step(gen)
        """)
    assert tree.findings(rules.rng_taint) == []


def test_rng_taint_flags_generator_into_cache_key(tree):
    tree.write("src/repro/experiments/cache.py", """\
        import hashlib

        from repro.sim.rng import generator_from_seed

        def key(seed):
            gen = generator_from_seed(seed)
            return hashlib.sha256(gen).hexdigest()
        """)
    findings = tree.findings(rules.rng_taint)
    assert len(findings) == 1
    assert "cache-key" in findings[0].message


# ---------------------------------------------------------------------------
# counter-registry
# ---------------------------------------------------------------------------

REGISTRY = """\
    BFS_CALLS = "bfs_calls"
    TIMER_TOPOLOGY_BFS = "topology.bfs"
    EV_QUORUM_SHRINK = "quorum_shrink"
    """


def test_counter_registry_flags_unregistered_literal(tree):
    tree.write("src/repro/perf/counters.py", REGISTRY)
    tree.write("src/repro/net/grid.py", """\
        class Grid:
            def walk(self):
                self.perf.incr("bfs_calls")
                self.perf.incr("bfs_callz")
        """)
    findings = tree.findings(rules.counter_registry)
    assert len(findings) == 1
    assert "'bfs_callz'" in findings[0].message


def test_counter_registry_flags_dynamic_names(tree):
    tree.write("src/repro/perf/counters.py", REGISTRY)
    tree.write("src/repro/net/grid.py", """\
        class Grid:
            def walk(self, scope):
                self.perf.incr(f"bfs_calls_{scope}")
        """)
    findings = tree.findings(rules.counter_registry)
    assert len(findings) == 1
    assert "built dynamically" in findings[0].message


def test_counter_registry_checks_timers_separately(tree):
    tree.write("src/repro/perf/counters.py", REGISTRY)
    tree.write("src/repro/net/grid.py", """\
        class Grid:
            def walk(self, ctx):
                with ctx.perf.timer("topology.bfs"):
                    pass
                with ctx.perf.timer("bfs_calls"):
                    pass
        """)
    findings = tree.findings(rules.counter_registry)
    # "bfs_calls" is a counter name, not a timer name.
    assert len(findings) == 1
    assert "timer('bfs_calls')" in findings[0].message


def test_counter_registry_flags_unregistered_event_tally(tree):
    tree.write("src/repro/perf/counters.py", REGISTRY)
    tree.write("src/repro/core/adjust.py", """\
        class Adjuster:
            def shrink(self):
                self.ctx.events.incr("quorum_shrnk")
                self.ctx.events.incr("bfs_calls")
        """)
    findings = tree.findings(rules.counter_registry)
    # A typo, and a perf counter name where an event tally belongs.
    assert [f.message.split(" is ")[0] for f in findings] == [
        "events.incr('quorum_shrnk')", "events.incr('bfs_calls')"]


def test_counter_registry_accepts_event_constants(tree):
    tree.write("src/repro/perf/counters.py", REGISTRY)
    tree.write("src/repro/core/adjust.py", """\
        from repro.perf import counters as cnt

        class Adjuster:
            def shrink(self):
                self.ctx.events.incr(cnt.EV_QUORUM_SHRINK)
                self.ctx.events.incr("quorum_shrink")
        """)
    assert tree.findings(rules.counter_registry) == []


def test_counter_registry_silent_without_registry_module(tree):
    # Fixture trees (and partial scans) without repro.perf.counters
    # must not drown in false positives.
    tree.write("src/repro/net/grid.py", """\
        class Grid:
            def walk(self):
                self.perf.incr("anything_goes")
        """)
    assert tree.findings(rules.counter_registry) == []


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

def test_layering_flags_upward_import(tree):
    # Foundation (repro.sim, layer 0) must not import the protocol
    # layer (repro.core, layer 3).
    tree.write("src/repro/sim/clock.py", """\
        from repro.core.state import AgentState
        """)
    tree.write("src/repro/core/state.py", """\
        class AgentState:
            pass
        """)
    findings = tree.findings(rules.layering)
    assert len(findings) == 1
    assert "layer violation" in findings[0].message
    assert "repro.sim.clock (layer 0, foundation)" in findings[0].message


def test_layering_accepts_downward_and_lateral_imports(tree):
    tree.write("src/repro/core/agent.py", """\
        from repro.net.grid import Grid
        from repro.quorum.vote import tally
        """)
    tree.write("src/repro/net/grid.py", """\
        class Grid:
            pass
        """)
    tree.write("src/repro/quorum/vote.py", """\
        def tally():
            pass
        """)
    assert tree.findings(rules.layering) == []


def test_layering_detects_import_cycles(tree):
    tree.write("src/repro/net/grid.py", """\
        from repro.obs.bus import Bus
        """)
    tree.write("src/repro/obs/bus.py", """\
        from repro.net.grid import Grid

        class Bus:
            pass
        """)
    findings = tree.findings(rules.layering)
    assert len(findings) == 1
    assert "import cycle" in findings[0].message
    assert "repro.net.grid -> repro.obs.bus" in findings[0].message


def test_layering_exempts_type_checking_and_lazy_imports(tree):
    tree.write("src/repro/sim/clock.py", """\
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.core.state import AgentState

        def peek():
            from repro.core.state import AgentState
            return AgentState
        """)
    tree.write("src/repro/core/state.py", """\
        class AgentState:
            pass
        """)
    assert tree.findings(rules.layering) == []


def test_layering_allows_package_reexport_idiom(tree):
    tree.write("src/repro/net/__init__.py", """\
        from repro.net.grid import Grid
        """)
    tree.write("src/repro/net/grid.py", """\
        class Grid:
            pass
        """)
    assert tree.findings(rules.layering) == []
