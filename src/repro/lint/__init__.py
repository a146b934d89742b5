"""repro.lint — AST-based determinism & protocol-invariant analyzer.

A dependency-free static analyzer enforcing the invariants the
reproduction's guarantees rest on: simulated-clock-only time, named RNG
streams, frozen message dataclasses, explicit BFS hop bounds,
config-owned protocol timers, centralized quorum arithmetic, and a
dependency-free runtime — plus a
whole-program pass (module/import/call graph) enforcing cross-module
invariants: protocol state-machine conformance (against ``TABLE`` in
the parsed ``repro.core.messages``), obs-event coverage, RNG stream
ownership, the perf counter registry and the layer DAG (spec:
:mod:`repro.lint.protocol_spec`).

Public surface:

* :func:`run_lint` / :class:`LintReport` — programmatic entry point;
* :class:`Rule`, :class:`Finding`, :class:`Severity`,
  :class:`FileContext` — per-file rule authoring (see docs/API.md);
* :class:`ProjectGraph`, :class:`ProjectRule`,
  :data:`~repro.lint.project_rules.PROJECT_RULES` — the whole-program
  pass and its five cross-module rules;
* :data:`ALL_RULES`, :data:`RULES_BY_NAME`, :func:`resolve_rules` —
  the built-in suite;
* ``python -m repro lint`` — the CLI (see :mod:`repro.lint.cli`).
"""

from repro.lint.core import FileContext, Finding, Rule, Severity
from repro.lint.engine import LintReport, lint_file, run_lint
from repro.lint.project import ProjectGraph, ProjectRule
from repro.lint.project_rules import PROJECT_RULES
from repro.lint.rules import ALL_RULES, RULES_BY_NAME, resolve_rules

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintReport",
    "PROJECT_RULES",
    "ProjectGraph",
    "ProjectRule",
    "RULES_BY_NAME",
    "Rule",
    "Severity",
    "lint_file",
    "resolve_rules",
    "run_lint",
]
