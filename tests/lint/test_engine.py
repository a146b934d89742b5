"""Engine mechanics: module inference, rule resolution, reports."""

from pathlib import Path

import pytest

from repro.lint import resolve_rules
from repro.lint.engine import module_name_for


# --- module inference -------------------------------------------------


@pytest.mark.parametrize("path,expected", [
    ("src/repro/core/state.py", "repro.core.state"),
    ("src/repro/net/__init__.py", "repro.net"),
    ("src/repro/__init__.py", "repro"),
    ("/tmp/x/src/repro/sim/rng.py", "repro.sim.rng"),
    ("examples/demo.py", None),
    ("benchmarks/bench_topology.py", None),
])
def test_module_name_for(path, expected):
    assert module_name_for(Path(path)) == expected


# --- rule resolution --------------------------------------------------


def test_resolve_rules_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        resolve_rules(select={"no-such-rule"})
    with pytest.raises(ValueError, match="no-such-rule"):
        resolve_rules(ignore={"no-such-rule"})


def test_resolve_rules_select_and_ignore_compose():
    names = [r.name for r in
             resolve_rules(select={"determinism", "hop-bound"},
                           ignore={"hop-bound"})]
    assert names == ["determinism"]


# --- reports ----------------------------------------------------------


def test_parse_error_reported_and_exit_2(tree):
    tree.write("src/repro/core/broken.py", "def broken(:\n")
    report = tree.lint()
    assert report.findings == ()
    assert len(report.parse_errors) == 1
    assert "broken.py" in report.parse_errors[0]
    assert report.exit_code() == 2
    assert "parse error" in report.render_text()


def test_render_text_summary_and_counts(tree):
    tree.write("src/repro/core/bad.py", """\
        import time

        a = time.time()
        b = time.monotonic()
        """)
    report = tree.lint(select={"determinism"})
    text = report.render_text()
    assert "1 files scanned, 1 rules, 2 findings" in text
    assert "[determinism=2]" in text
    assert report.counts_by_rule() == {"determinism": 2}
    lines = text.splitlines()
    assert lines[0].startswith("src/repro/core/bad.py:3:")
    assert "error[determinism]" in lines[0]


def test_findings_sorted_by_path_then_line(tree):
    tree.write("src/repro/net/zbad.py", "import numpy\n")
    tree.write("src/repro/core/abad.py", """\
        import time
        x = time.time()
        """)
    report = tree.lint()
    paths = [f.path for f in report.findings]
    assert paths == sorted(paths)


# --- report JSON ------------------------------------------------------


def test_report_to_json_schema(tree):
    tree.write("src/repro/core/bad.py", """\
        import time

        a = time.time()
        """)
    payload = tree.lint(select={"determinism"}).to_json()
    assert set(payload) == {"schema", "rules", "files_scanned", "findings",
                            "counts", "parse_errors"}
    assert payload["schema"] == 3
    assert payload["rules"] == ["determinism"]
    (finding,) = payload["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message",
                            "line_text"}
    assert finding["line_text"] == "a = time.time()"
