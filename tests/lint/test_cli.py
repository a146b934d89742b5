"""End-to-end ``repro lint`` CLI behavior (exit codes, the JSON report)."""

import json

import pytest

from repro import cli as repro_cli
from repro.lint import cli as lint_cli
from repro.lint.rules import RULES

BAD_DETERMINISM = """\
import time

def stamp():
    return time.time()
"""

CLEAN = """\
def stamp(ctx):
    return ctx.sim.now
"""


@pytest.fixture
def checkout(tree, monkeypatch):
    """A scratch checkout the CLI scans via its default roots."""
    monkeypatch.chdir(tree.root)
    return tree


def lint(*argv):
    return repro_cli.main(["lint", *argv])


def test_clean_tree_exits_zero(checkout, capsys):
    checkout.write("src/repro/core/good.py", CLEAN)
    assert lint() == 0
    out = capsys.readouterr().out
    assert "1 files scanned, 9 rules, 0 findings" in out


def test_findings_exit_one_with_rendered_lines(checkout, capsys):
    checkout.write("src/repro/core/bad.py", BAD_DETERMINISM)
    assert lint() == 1
    out = capsys.readouterr().out
    assert "src/repro/core/bad.py:4:" in out
    assert "error[determinism]" in out


def test_select_and_ignore(checkout, capsys):
    checkout.write("src/repro/core/bad.py", BAD_DETERMINISM)
    assert lint("--select", "hop-bound") == 0
    assert lint("--ignore", "determinism") == 0
    assert lint("--select", "determinism") == 1
    capsys.readouterr()


def test_json_format_schema(checkout, capsys, tmp_path):
    checkout.write("src/repro/core/bad.py", BAD_DETERMINISM)
    artifact = tmp_path / "report.json"
    assert lint("--out", str(artifact)) == 1
    capsys.readouterr()
    payload = json.loads(artifact.read_text())
    assert payload["schema"] == 3
    assert payload["files_scanned"] == 1
    assert payload["counts"] == {"determinism": 1}
    assert payload["parse_errors"] == []
    (finding,) = payload["findings"]
    assert finding["rule"] == "determinism"
    assert "severity" not in finding
    assert finding["path"] == "src/repro/core/bad.py"
    assert finding["line"] == 4
    assert finding["line_text"] == "return time.time()"


def test_out_writes_artifact(checkout, capsys, tmp_path):
    checkout.write("src/repro/core/bad.py", BAD_DETERMINISM)
    artifact = tmp_path / "lint-findings.json"
    assert lint("--out", str(artifact)) == 1
    payload = json.loads(artifact.read_text())
    assert payload["counts"] == {"determinism": 1}
    # stdout stays in text format
    assert "error[determinism]" in capsys.readouterr().out


def test_explicit_paths_override_default_roots(checkout, capsys):
    checkout.write("src/repro/core/bad.py", BAD_DETERMINISM)
    checkout.write("src/repro/net/good.py", CLEAN)
    assert lint("src/repro/net") == 0
    capsys.readouterr()


def test_list_rules(checkout, capsys):
    assert lint("--list-rules") == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.name in out


def test_unknown_rule_rejected(checkout, capsys):
    with pytest.raises(SystemExit):
        lint("--select", "no-such-rule")
    capsys.readouterr()


def test_parse_error_exits_two(checkout, capsys):
    checkout.write("src/repro/core/broken.py", "def broken(:\n")
    assert lint() == 2
    assert "parse error" in capsys.readouterr().out


def test_standalone_module_entry_point(checkout, capsys):
    checkout.write("src/repro/core/bad.py", BAD_DETERMINISM)
    assert lint_cli.main(["--select", "determinism"]) == 1
    assert "error[determinism]" in capsys.readouterr().out
