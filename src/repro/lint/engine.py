"""File discovery, the one lint pass, and report rendering.

The engine walks ``.py`` files, infers each file's dotted module name
(so rules can scope themselves to packages), parses every file once
into a :class:`~repro.lint.project.ProjectGraph`, runs the active rules
over it, and renders text or JSON.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.core import FileContext, Finding
from repro.lint.project import ProjectGraph
from repro.lint.rules import resolve_rules

JSON_SCHEMA_VERSION = 3


def module_name_for(path: Path) -> Optional[str]:
    """Infer the dotted module name from a file path.

    The convention is positional: the module path starts at the last
    ``repro`` directory component (``.../src/repro/core/state.py`` ->
    ``repro.core.state``), which also maps fixture trees laid out as
    ``<tmp>/src/repro/...`` in tests.  Files outside a ``repro``
    package (examples, benchmarks) have no module name; per-package
    rules skip them while path-scoped rules (hop-bound) still apply.
    """
    parts = [part for part in path.parts]
    if path.suffix == ".py":
        parts[-1] = path.stem
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            dotted = parts[index:]
            if dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return None


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = (path,)
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def _relpath(path: Path, root: Optional[Path]) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclasses.dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    findings: Tuple[Finding, ...]
    files_scanned: int
    rule_names: Tuple[str, ...]
    parse_errors: Tuple[str, ...] = ()

    def counts_by_rule(self) -> Dict[str, int]:
        return dict(Counter(f.rule for f in self.findings))

    def exit_code(self) -> int:
        """0 clean, 1 findings, 2 files that do not parse."""
        if self.parse_errors:
            return 2
        return 1 if self.findings else 0

    # -- rendering -----------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "schema": JSON_SCHEMA_VERSION,
            "rules": list(self.rule_names),
            "files_scanned": self.files_scanned,
            "findings": [dataclasses.asdict(f) for f in self.findings],
            "counts": self.counts_by_rule(),
            "parse_errors": list(self.parse_errors),
        }

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        lines += [f"parse error: {err}" for err in self.parse_errors]
        total = len(self.findings)
        summary = (f"{self.files_scanned} files scanned, "
                   f"{len(self.rule_names)} rules, "
                   f"{total} finding{'s' if total != 1 else ''}")
        if total:
            per_rule = ", ".join(
                f"{rule}={count}"
                for rule, count in sorted(self.counts_by_rule().items()))
            summary += f" [{per_rule}]"
        lines.append(summary)
        return "\n".join(lines)


def parse_context(path: Path,
                  root: Optional[Path] = None) -> FileContext:
    """Parse one file into the :class:`FileContext` the rules read."""
    source = path.read_text(encoding="utf-8")
    return FileContext(
        relpath=_relpath(path, root),
        module=module_name_for(path),
        tree=ast.parse(source, filename=str(path)),
        lines=source.splitlines(),
    )


def run_lint(paths: Sequence[Path],
             select: Optional[Set[str]] = None,
             ignore: Optional[Set[str]] = None,
             root: Optional[Path] = None) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    Files are parsed once into one :class:`ProjectGraph`, and every
    active rule runs over it.

    Args:
        paths: files and/or directories to scan.
        select: restrict to these rule names (default: all).
        ignore: drop these rule names from the active set.
        root: paths in findings are rendered relative to this directory
            (default: the current working directory).
    """
    rules = resolve_rules(select=select, ignore=ignore)
    files = iter_python_files([Path(p) for p in paths])
    contexts: List[FileContext] = []
    parse_errors: List[str] = []
    for path in files:
        try:
            contexts.append(parse_context(path, root=root))
        except SyntaxError as exc:
            parse_errors.append(f"{_relpath(path, root)}: {exc.msg} "
                                f"(line {exc.lineno})")
    graph = ProjectGraph(contexts)
    findings = [finding for rule in rules for finding in rule.check(graph)]
    findings.sort(key=Finding.sort_key)
    return LintReport(
        findings=tuple(findings),
        files_scanned=len(files),
        rule_names=tuple(rule.name for rule in rules),
        parse_errors=tuple(parse_errors),
    )
