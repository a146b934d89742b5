"""Acceptance gate: the real tree is clean under every rule.

Each of the seven rules runs over ``src``, ``examples`` and
``benchmarks`` (the session's ``repo_graph``) and fails listing every
finding.  If a rule fires here, fix the code — or the rule, if the
finding is false.  A rule whose scope stopped matching anything would
pass that gate too, so each one also has to catch a defect seeded into
the real tree.
"""

import pytest

from tests.conftest import SCAN_ROOTS
from tests.lint import rules
from tests.lint.core import parse_source
from tests.lint.project import ProjectGraph
from tests.lint.rules import check, rule_name

RULES = (rules.determinism, rules.hop_bound, rules.rng_taint,
         rules.obs_coverage, rules.state_machine, rules.counter_registry,
         rules.layering)

#: One synthetic file per rule, inside that rule's scope, holding the
#: defect only that rule exists to catch.
SEEDED = {
    rules.determinism: ("src/repro/core/_seeded.py", """\
import time


def stamp():
    return time.time()
"""),
    rules.hop_bound: ("src/repro/core/_seeded.py", """\
def scan(topology, node_id):
    return topology.reachable(node_id)
"""),
    rules.rng_taint: ("src/repro/core/_seeded.py", """\
def draw(ctx):
    return ctx.streams.get("faults.loss")
"""),
    rules.obs_coverage: ("src/repro/core/_seeded.py", """\
from repro.obs.events import HeadHandoff


def emit():
    return HeadHandoff()
"""),
    rules.state_machine: ("src/repro/core/_seeded.py", """\
import repro.core.messages as m


class Seeded:
    def _handle_com_ack(self, msg):
        self._send(msg.src, m.COM_REQ)
"""),
    rules.counter_registry: ("src/repro/core/_seeded.py", """\
def tally(ctx):
    ctx.perf.incr("seeded_unregistered")
"""),
    rules.layering: ("src/repro/sim/_seeded.py", """\
import repro.core.protocol
"""),
}


def test_repo_parses_cleanly(repo_graph):
    roots = {ctx.relpath.partition("/")[0] for ctx in repo_graph.files}
    assert roots == set(SCAN_ROOTS)
    assert len(repo_graph.files) > 50


@pytest.mark.parametrize("rule", RULES, ids=rule_name)
def test_repo_is_clean_under_rule(rule, repo_graph):
    findings = check(rule, repo_graph)
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"{len(findings)} findings:\n{rendered}"


@pytest.mark.parametrize("rule", RULES, ids=rule_name)
def test_seeded_defect_fires_only_its_rule(rule, repo_graph):
    relpath, source = SEEDED[rule]
    graph = ProjectGraph([*repo_graph.files, parse_source(relpath, source)])
    findings = {rule_name(each): check(each, graph) for each in RULES}
    assert [name for name, found in findings.items() if found] == [
        rule_name(rule)]
    assert {f.path for f in findings[rule_name(rule)]} == {relpath}
