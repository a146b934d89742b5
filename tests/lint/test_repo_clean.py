"""Acceptance gate: the real tree is clean under every rule.

This is the test the CI lint job mirrors (``repro lint``): all nine
rules over ``src``, ``examples`` and ``benchmarks``.  If a rule fires
here, fix the code — or the rule, if the finding is false.
"""

from pathlib import Path

from repro.lint import run_lint

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
    assert report.exit_code() == 0


def test_all_rules_actually_ran():
    report = _report()
    assert report.rule_names == (
        "determinism", "hop-bound", "no-oracle-import", "rng-taint",
        "obs-coverage", "state-machine", "counter-registry",
        "metric-registry", "layering")
    assert report.files_scanned > 50
