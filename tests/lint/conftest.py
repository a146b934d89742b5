"""Shared fixtures: build throwaway ``src/repro/...`` trees and lint them.

Rule tests write inline fixture snippets into a tmp tree laid out like
the real repo (so module inference kicks in), then run one rule — or
the whole suite — over it.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint


class LintTree:
    """A scratch checkout-shaped directory to lint."""

    def __init__(self, root: Path) -> None:
        self.root = root

    def write(self, relpath: str, source: str) -> Path:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return path

    def lint(self, select=None, ignore=None):
        return run_lint([self.root], select=select, ignore=ignore,
                        root=self.root)

    def findings(self, select=None):
        return list(self.lint(select=select).findings)


@pytest.fixture
def tree(tmp_path):
    return LintTree(tmp_path)
