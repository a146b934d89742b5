"""Acceptance gate: the real tree is clean under every rule.

This is the test the CI lint job mirrors (``repro lint --strict``):
every rule — per-file and whole-program — over ``src``, ``examples``
and ``benchmarks``.  If a rule fires here, fix the code.
"""

from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.project_rules import PROJECT_RULES
from repro.lint.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
SCAN_ROOTS = [REPO_ROOT / name for name in ("src", "examples", "benchmarks")]


def _report():
    return run_lint([p for p in SCAN_ROOTS if p.exists()], root=REPO_ROOT)


def test_repo_parses_cleanly():
    assert _report().parse_errors == ()


def test_repo_is_clean_under_all_rules():
    report = _report()
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == (), f"lint findings:\n{rendered}"
    assert report.exit_code(strict=True) == 0


def test_all_rules_actually_ran():
    report = _report()
    expected = ({rule.name for rule in ALL_RULES}
                | {rule.name for rule in PROJECT_RULES})
    assert set(report.rule_names) == expected
    assert len(report.rule_names) >= 15
    assert report.files_scanned > 50


@pytest.mark.parametrize("rule", ["determinism", "no-oracle-import"])
def test_zero_tolerance_rules_have_no_suppressions(rule):
    """The acceptance criteria forbid even in-source suppressions for
    the determinism / no-oracle-import invariants."""
    needle = f"repro-lint: disable={rule}"
    offenders = []
    for root in SCAN_ROOTS:
        if not root.exists():
            continue
        for path in root.rglob("*.py"):
            if needle in path.read_text(encoding="utf-8"):
                offenders.append(str(path.relative_to(REPO_ROOT)))
    assert offenders == []
