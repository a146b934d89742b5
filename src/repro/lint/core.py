"""Data model of the static analyzer.

A :class:`Rule` inspects one file at a time through a
:class:`FileContext` (path, inferred dotted module name, source text and
parsed AST) and yields :class:`Finding`\\ s.  Rules never do I/O — the
engine (:mod:`repro.lint.engine`) owns file discovery, suppression
handling and reporting, so a rule body is pure AST traversal.

Suppressions
------------
Two comment forms disable rules, mirroring familiar linters:

* ``# repro-lint: disable=rule-a,rule-b`` on a *code* line suppresses
  those rules for findings anchored to that line;
* the same comment on a line of its own (only whitespace before the
  ``#``) suppresses the rules for the whole file.

Unknown rule names inside a directive are ignored — a directive for a
rule that does not exist yet must not break older checkouts.
"""

from __future__ import annotations

import abc
import ast
import dataclasses
import enum
import re
from pathlib import Path
from typing import (Dict, FrozenSet, Iterator, List, Optional, Protocol,
                    Set, Tuple)

_DIRECTIVE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings always fail the run; ``WARNING`` findings fail
    only under ``repro lint --strict`` (which is what CI runs).
    """

    WARNING = "warning"
    ERROR = "error"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source line (``line_text`` is
    the stripped source line, carried into the JSON report)."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    line_text: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity.value}[{self.rule}] {self.message}")


class FileContext:
    """Everything a rule may look at for one file."""

    def __init__(self, path: Path, relpath: str, module: Optional[str],
                 source: str, tree: ast.Module) -> None:
        self.path = path
        self.relpath = relpath
        self.module = module
        self.source = source
        self.tree = tree
        self.lines: List[str] = source.splitlines()
        self._file_disables, self._line_disables = _scan_directives(
            self.lines)

    # -- suppression --------------------------------------------------
    def suppressed(self, rule: str, line: int) -> bool:
        """Is ``rule`` disabled for ``line`` (or the whole file)?"""
        if rule in self._file_disables:
            return True
        return rule in self._line_disables.get(line, frozenset())

    # -- module scoping helpers --------------------------------------
    def in_package(self, *prefixes: str) -> bool:
        """Does this file's module live under any of ``prefixes``?"""
        if self.module is None:
            return False
        return any(self.module == p or self.module.startswith(p + ".")
                   for p in prefixes)

    def is_module(self, *names: str) -> bool:
        return self.module is not None and self.module in names

    # -- finding constructor ------------------------------------------
    def finding(self, rule: "RuleLike", node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = self.lines[line - 1].strip() if 0 < line <= len(self.lines) \
            else ""
        return Finding(rule=rule.name, severity=rule.severity,
                       path=self.relpath, line=line, col=col,
                       message=message, line_text=text)


def _scan_directives(
    lines: List[str],
) -> Tuple[FrozenSet[str], Dict[int, FrozenSet[str]]]:
    """Collect file-level and per-line ``repro-lint: disable`` comments."""
    file_disables: Set[str] = set()
    line_disables: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _DIRECTIVE.search(line)
        if match is None:
            continue
        rules = frozenset(
            name.strip() for name in match.group(1).split(",")
            if name.strip())
        before = line[:match.start()]
        if "#" in before:
            # The directive sits inside a longer comment; treat the
            # comment's placement (code vs standalone) the same way.
            before = before[:before.index("#")]
        if before.strip():
            line_disables[lineno] = rules
        else:
            file_disables |= rules
    return frozenset(file_disables), line_disables


class RuleLike(Protocol):
    """What a finding constructor needs from a rule — satisfied by both
    per-file :class:`Rule` and whole-program
    :class:`~repro.lint.project.ProjectRule` objects."""

    name: str
    severity: Severity


class Rule(abc.ABC):
    """One named invariant checked over a file's AST.

    Subclasses set the class attributes and implement :meth:`check`;
    :meth:`applies` confines a rule to the packages it governs so that
    out-of-scope files are never traversed.
    """

    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR

    def applies(self, ctx: FileContext) -> bool:
        return True

    @abc.abstractmethod
    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for ``ctx`` (suppressions are applied later)."""
        raise NotImplementedError
