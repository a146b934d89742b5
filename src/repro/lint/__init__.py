"""repro.lint — AST-based determinism & protocol-invariant analyzer.

A dependency-free static analyzer that keeps the checks only source
analysis can make: simulated-clock-only time and generators built in
one place, explicit BFS hop bounds, a dependency-free runtime, RNG
stream ownership, obs-event coverage, protocol state-machine
conformance (against ``TABLE`` in the parsed ``repro.core.messages``),
the perf counter and metric name registries, and the layer DAG (spec:
:mod:`repro.lint.protocol_spec`).  Every file is parsed once into a
:class:`ProjectGraph` and every rule runs over it; every finding fails
the run.

Public surface:

* :func:`run_lint` / :class:`LintReport` — programmatic entry point;
* :class:`Rule`, :class:`Finding`, :class:`FileContext`,
  :class:`ProjectGraph` — rule authoring (see docs/API.md);
* :data:`RULES`, :func:`resolve_rules` — the built-in suite;
* ``python -m repro lint`` — the CLI (see :mod:`repro.lint.cli`).
"""

from repro.lint.core import FileContext, Finding
from repro.lint.engine import LintReport, run_lint
from repro.lint.project import ProjectGraph
from repro.lint.rules import RULES, Rule, resolve_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "ProjectGraph",
    "RULES",
    "Rule",
    "resolve_rules",
    "run_lint",
]
