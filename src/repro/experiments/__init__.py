"""Experiment harness: scenarios, the runner, metrics and per-figure
experiment definitions for every table and figure of the paper's
evaluation (Section VI).
"""

from repro.experiments.scenario import Scenario
from repro.experiments.metrics import DeathRecord, RunResult
from repro.experiments.runner import ScenarioRunner, run_scenario
from repro.experiments import figures
from repro.experiments.report import format_series, format_table
from repro.experiments.sweep import (
    RunCache,
    RunSpec,
    SweepCell,
    SweepExecutor,
    SweepSummary,
    derive_seeds,
    expand_grid,
)

__all__ = [
    "Scenario",
    "RunResult",
    "DeathRecord",
    "ScenarioRunner",
    "run_scenario",
    "figures",
    "format_series",
    "format_table",
    "RunSpec",
    "RunCache",
    "SweepCell",
    "SweepExecutor",
    "SweepSummary",
    "derive_seeds",
    "expand_grid",
]
