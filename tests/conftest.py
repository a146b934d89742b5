"""Session fixtures: the program's source, parsed once.

The static checks — the rules in ``tests/lint/rules.py`` and the guards
in ``tests/lint``, ``tests/net`` and ``tests/integration`` — read the
same ASTs and source lines, so ``src``, ``examples`` and ``benchmarks``
are read and parsed once per session.
"""

from pathlib import Path

import pytest

from tests.lint.core import parse_tree
from tests.lint.project import ProjectGraph

REPO_ROOT = Path(__file__).resolve().parents[1]
SCAN_ROOTS = ("src", "examples", "benchmarks")
PROGRAM = "src/repro/"


@pytest.fixture(scope="session")
def repo_graph():
    """Every file under the scan roots; a file that does not parse
    fails the fixture with its path and line."""
    try:
        return ProjectGraph(parse_tree(REPO_ROOT, SCAN_ROOTS))
    except SyntaxError as exc:
        pytest.fail(f"{exc.filename}:{exc.lineno}: {exc.msg}", pytrace=False)


@pytest.fixture(scope="session")
def program_files(repo_graph):
    """The ``src/repro`` files of ``repo_graph``, in path order, keyed
    by their path under ``src/repro``."""
    return {ctx.relpath[len(PROGRAM):]: ctx for ctx in repo_graph.files
            if ctx.relpath.startswith(PROGRAM)}
