"""Shared fixtures: build throwaway ``src/repro/...`` trees and check them.

Rule tests write inline fixture snippets into a tmp tree laid out like
the real repo (so module inference kicks in), then run one rule over
it.
"""

import textwrap
from pathlib import Path

import pytest

from tests.lint.core import parse_tree
from tests.lint.project import ProjectGraph
from tests.lint.rules import check


class LintTree:
    """A scratch checkout-shaped directory to check."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def write(self, relpath: str, source: str) -> Path:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return path

    def graph(self) -> ProjectGraph:
        names = sorted(path.name for path in self.root.iterdir())
        return ProjectGraph(parse_tree(self.root, names))

    def findings(self, rule):
        return check(rule, self.graph())


@pytest.fixture
def tree(tmp_path):
    return LintTree(tmp_path)
