"""The ``repro lint`` subcommand.

Usage::

    python -m repro lint                      # scan src, examples, benchmarks
    python -m repro lint src/repro/core       # explicit paths
    python -m repro lint --select hop-bound   # one rule only
    python -m repro lint --strict --out lint-findings.json        # CI

Exit codes: 0 clean (warnings tolerated unless ``--strict``),
1 findings, 2 bad usage / unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, TextIO

from repro.lint.engine import LintReport, run_lint
from repro.lint.project_rules import PROJECT_RULES
from repro.lint.rules import ALL_RULES, all_rule_names

#: Scanned when no paths are given (relative to the working directory);
#: missing roots are skipped so the default works from a bare checkout.
DEFAULT_ROOTS = ("src", "examples", "benchmarks")


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to ``parser`` (shared with ``repro.cli``)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to scan "
             f"(default: {' '.join(DEFAULT_ROOTS)})")
    parser.add_argument(
        "--select", nargs="+", metavar="RULE", default=None,
        choices=sorted(all_rule_names()),
        help="run only these rules")
    parser.add_argument(
        "--ignore", nargs="+", metavar="RULE", default=None,
        choices=sorted(all_rule_names()),
        help="skip these rules")
    project_group = parser.add_mutually_exclusive_group()
    project_group.add_argument(
        "--project", dest="project", action="store_true", default=True,
        help="run the whole-program pass (default)")
    project_group.add_argument(
        "--no-project", dest="project", action="store_false",
        help="per-file rules only (fast single-file iteration)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout format (default: text)")
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="additionally write the JSON report to FILE "
             "(CI artifact), independent of --format")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not just errors")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit")


def _list_rules(out: TextIO) -> None:
    rows = [(rule, "file") for rule in ALL_RULES]
    rows += [(rule, "project") for rule in PROJECT_RULES]
    width = max(len(rule.name) for rule, _ in rows)
    for rule, kind in rows:
        print(f"{rule.name:<{width}}  {kind:<7}  "
              f"{rule.severity.value:<7}  {rule.description}", file=out)


def _resolve_paths(raw: List[str]) -> List[Path]:
    if raw:
        return [Path(p) for p in raw]
    return [Path(root) for root in DEFAULT_ROOTS if Path(root).exists()]


def run(args: argparse.Namespace, out: Optional[TextIO] = None) -> int:
    """Execute a parsed ``repro lint`` invocation."""
    stream = out if out is not None else sys.stdout
    if args.list_rules:
        _list_rules(stream)
        return 0

    paths = _resolve_paths(list(args.paths))
    if not paths:
        print("repro lint: no paths to scan "
              f"(none of {', '.join(DEFAULT_ROOTS)} exist here)",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        report = run_lint(
            paths,
            select=set(args.select) if args.select else None,
            ignore=set(args.ignore) if args.ignore else None,
            project=args.project,
        )
    except (OSError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    return _emit(report, args, stream, elapsed)


def _emit(report: LintReport, args: argparse.Namespace,
          stream: TextIO, elapsed: float) -> int:
    payload = report.to_json()
    # Wall-clock of the analysis itself, so CI can spot lint
    # performance regressions alongside finding regressions.
    payload["elapsed_s"] = round(elapsed, 3)
    if args.out is not None:
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True),
              file=stream)
    else:
        print(report.render_text(), file=stream)
        print(f"lint wall-clock: {elapsed:.2f}s", file=stream)
    return report.exit_code(strict=args.strict)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & protocol-invariant checks")
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
