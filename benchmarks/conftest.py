"""Shared benchmark plumbing.

Every benchmark regenerates one table or figure of the paper and prints
the same rows/series the paper plots.  ``pedantic(rounds=1)`` is used
throughout: these are figure-regeneration harnesses, not
micro-benchmarks — a single run per figure is the deliverable, and its
wall-clock time is reported by pytest-benchmark as a bonus.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.experiments import format_series
from repro.experiments.export import write_series_csv, write_series_json
from repro.experiments.sweep import (
    WORKERS_ENV,
    CACHE_ENV,
    SweepExecutor,
    set_default_executor,
)

ARTIFACTS = Path(__file__).parent / "artifacts"


def pytest_configure(config) -> None:
    """Opt-in parallel figure regeneration.

    ``REPRO_SWEEP_WORKERS=N`` fans every cell of a figure (curve x
    x-value x seed, one sweep per figure) out over N worker processes; ``REPRO_SWEEP_CACHE=DIR`` (default
    ``benchmarks/.sweep_cache`` when workers are enabled) persists run
    results so re-benchmarking only executes missing cells.  Unset, the
    benchmarks run exactly the serial path CI measures — per-run
    deterministic seeding makes both paths bit-identical anyway.
    """
    workers_env = os.environ.get(WORKERS_ENV, "").strip()
    if not workers_env:
        return
    cache_dir = (os.environ.get(CACHE_ENV, "").strip()
                 or str(Path(__file__).parent / ".sweep_cache"))
    set_default_executor(SweepExecutor(
        workers=int(workers_env), cache_dir=cache_dir))


def pytest_unconfigure(config) -> None:
    set_default_executor(None)


def run_figure(benchmark, fn: Callable[[], Dict[str, Any]],
               printer: Callable[[Dict[str, Any]], str] = format_series,
               artifact: Optional[str] = None):
    """Run a figure experiment once under the benchmark clock, print the
    regenerated series, and (for series-shaped results) drop CSV/JSON
    artifacts under ``benchmarks/artifacts/``."""
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    print()
    print(printer(result))
    if "series" in result:
        name = artifact or _artifact_name(result)
        ARTIFACTS.mkdir(exist_ok=True)
        write_series_csv(result, ARTIFACTS / f"{name}.csv")
        write_series_json(result, ARTIFACTS / f"{name}.json")
    return result


def _artifact_name(result: Dict[str, Any]) -> str:
    title = result.get("title", "figure")
    stem = title.split("—")[0].strip().lower().replace(".", "").replace(" ", "")
    return stem or "figure"
