"""File discovery, rule execution and report rendering.

The engine walks ``.py`` files, infers each file's dotted module name
(so rules can scope themselves to packages), runs the active rules,
filters suppressed findings, and renders text or JSON.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.core import FileContext, Finding, Rule, Severity
from repro.lint.project import ProjectGraph, ProjectRule
from repro.lint.rules import AnyRule, resolve_rules

JSON_SCHEMA_VERSION = 2


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

    def has_errors(self) -> bool:
        return any(f.severity is Severity.ERROR for f in self.findings)

    def exit_code(self, strict: bool = False) -> int:
        """0 clean, 1 findings (warnings only fail under ``strict``)."""
        if self.parse_errors:
            return 2
        if self.has_errors():
            return 1
        if strict and self.findings:
            return 1
        return 0

    # -- rendering -----------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "schema": JSON_SCHEMA_VERSION,
            "rules": list(self.rule_names),
            "files_scanned": self.files_scanned,
            "findings": [f.to_json() for f in self.findings],
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
    """Parse one file into the :class:`FileContext` both passes share."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    return FileContext(
        path=path,
        relpath=_relpath(path, root),
        module=module_name_for(path),
        source=source,
        tree=tree,
    )


def check_context(ctx: FileContext,
                  rules: Sequence[Rule]) -> List[Finding]:
    """Run per-file ``rules`` over a parsed file (suppressions applied)."""
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding.rule, finding.line):
                findings.append(finding)
    return findings


def lint_file(path: Path, rules: Sequence[Rule],
              root: Optional[Path] = None) -> List[Finding]:
    """Run per-file ``rules`` over one file (suppressions applied)."""
    return check_context(parse_context(path, root=root), rules)


def run_lint(paths: Sequence[Path],
             select: Optional[Set[str]] = None,
             ignore: Optional[Set[str]] = None,
             rules: Optional[Sequence[AnyRule]] = None,
             root: Optional[Path] = None,
             project: bool = True) -> LintReport:
    """Lint ``paths`` and return a :class:`LintReport`.

    Files are parsed once; the per-file rules see each
    :class:`FileContext` in isolation, then the whole-program rules see
    all of them at once through a :class:`ProjectGraph` (two-pass
    collect-then-check).  Suppression directives apply identically to
    both passes — a project finding anchors to a concrete file/line.

    Args:
        paths: files and/or directories to scan.
        select: restrict to these rule names (default: all).
        ignore: drop these rule names from the active set.
        rules: explicit rule objects (overrides select/ignore).
        root: paths in findings are rendered relative to this directory
            (default: the current working directory).
        project: run the whole-program pass (``--no-project`` in the
            CLI turns this off for fast single-file iteration).
    """
    if rules is None:
        rules = resolve_rules(select=select, ignore=ignore, project=project)
    file_rules = [r for r in rules if isinstance(r, Rule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    if not project:
        project_rules = []
    files = iter_python_files([Path(p) for p in paths])
    contexts: List[FileContext] = []
    findings: List[Finding] = []
    parse_errors: List[str] = []
    for path in files:
        try:
            ctx = parse_context(path, root=root)
        except SyntaxError as exc:
            parse_errors.append(f"{_relpath(path, root)}: {exc.msg} "
                                f"(line {exc.lineno})")
            continue
        contexts.append(ctx)
        findings.extend(check_context(ctx, file_rules))
    if project_rules and contexts:
        graph = ProjectGraph(contexts)
        for rule in project_rules:
            for finding in rule.check_project(graph):
                ctx_for = graph.context_for(finding.path)
                if ctx_for is not None and ctx_for.suppressed(
                        finding.rule, finding.line):
                    continue
                findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return LintReport(
        findings=tuple(findings),
        files_scanned=len(files),
        rule_names=tuple(rule.name for rule in rules),
        parse_errors=tuple(parse_errors),
    )

