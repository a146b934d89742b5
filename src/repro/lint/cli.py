"""The ``repro lint`` subcommand.

Usage::

    python -m repro lint                      # scan src, examples, benchmarks
    python -m repro lint src/repro/core       # explicit paths
    python -m repro lint --select hop-bound   # one rule only
    python -m repro lint --out lint-findings.json                 # CI

Exit codes: 0 clean, 1 findings, 2 bad usage / unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import run_lint
from repro.lint.rules import RULES

#: Scanned when no paths are given (relative to the working directory);
#: missing roots are skipped so the default works from a bare checkout.
DEFAULT_ROOTS = ("src", "examples", "benchmarks")


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to ``parser`` (shared with ``repro.cli``)."""
    names = sorted(rule.name for rule in RULES)
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to scan "
             f"(default: {' '.join(DEFAULT_ROOTS)})")
    parser.add_argument(
        "--select", nargs="+", metavar="RULE", default=None, choices=names,
        help="run only these rules")
    parser.add_argument(
        "--ignore", nargs="+", metavar="RULE", default=None, choices=names,
        help="skip these rules")
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the JSON report to FILE (CI artifact)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit")


def _resolve_paths(raw: List[str]) -> List[Path]:
    if raw:
        return [Path(p) for p in raw]
    return [Path(root) for root in DEFAULT_ROOTS if Path(root).exists()]


def run(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro lint`` invocation."""
    if args.list_rules:
        width = max(len(rule.name) for rule in RULES)
        for rule in RULES:
            print(f"{rule.name:<{width}}  {rule.description}")
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
        )
    except (OSError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    if args.out is not None:
        payload = report.to_json()
        # Wall-clock of the analysis itself, so CI can spot lint
        # performance regressions alongside finding regressions.
        payload["elapsed_s"] = round(elapsed, 3)
        Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    print(report.render_text())
    print(f"lint wall-clock: {elapsed:.2f}s")
    return report.exit_code()


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & protocol-invariant checks")
    configure_parser(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
