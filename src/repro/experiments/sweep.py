"""Parallel sweep executor with deterministic seeding and a run cache.

The paper's evaluation is a grid: seven protocols x several scenario
axes (network size, transmission range, speed, departure mix) x seeds.
Every cell is an independent simulation, which makes the whole grid
embarrassingly parallel — as long as parallel execution cannot change
what any one cell computes.  Two properties guarantee that here:

* **Deterministic seeding.**  A cell's randomness derives entirely from
  its :class:`~repro.experiments.scenario.Scenario` seed (see
  :func:`repro.sim.rng.spawn_key` and :func:`derive_seeds` for deriving
  those from a sweep master seed), never from execution order, worker
  identity or wall clock.  A parallel sweep is therefore bit-identical
  to the serial one.

* **Content-addressed caching.**  A :class:`RunSpec` hashes to a stable
  key over its full parameter set; :class:`RunCache` stores the
  serialized :class:`~repro.experiments.metrics.RunResult` under that
  key.  Re-running a figure only executes the missing cells; a
  corrupted or unreadable entry silently falls back to re-running.

Typical use::

    from repro.experiments.sweep import RunSpec, SweepExecutor

    specs = [RunSpec(protocol=p, scenario=sc)
             for p in ("quorum", "manetconf") for sc in scenarios]
    report = SweepExecutor(workers=8, cache_dir="~/.repro-cache").run(specs)
    for spec, result in zip(specs, report.results):
        print(spec.protocol, result.avg_config_latency_hops())
    print(report.stats.snapshot())   # scheduled/executed/cached/failed

Large grids can stream instead of materializing: iterate
:meth:`SweepExecutor.stream` and fold each :class:`SweepCell` through
a :class:`SweepSummary` — the folded totals are byte-identical to the
materialized report's aggregates (``report.summary().to_json()``),
while memory stays bounded by the not-yet-yielded cells::

    summary = SweepSummary()
    for cell in SweepExecutor(workers=8).stream(specs):
        summary.fold(cell)
    print(summary.perf_totals())

A figure function (:mod:`repro.experiments.figures`) hands its whole
(curve x x-value x seed) grid to the executor it is given; given none,
it uses the process-wide :func:`default_executor`, which stays serial
and uncached unless the ``REPRO_SWEEP_WORKERS`` / ``REPRO_SWEEP_CACHE``
environment variables — or :func:`set_default_executor` — say
otherwise, so tests and CI remain deterministic and dependency-free by
default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.experiments.metrics import RunResult
from repro.experiments.scenario import Scenario
from repro.obs import (
    merge_histograms, merge_series, metrics_export_path, trace_export_path,
)
from repro.perf import Counters
from repro.sim.rng import spawn_key

CACHE_FORMAT_VERSION = 1

#: Environment knobs (read once per :func:`default_executor` rebuild).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"
CACHE_ENV = "REPRO_SWEEP_CACHE"


# ---------------------------------------------------------------------------
# Run specifications
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One cell of a sweep: a protocol driven through a scenario.

    The spec is the *complete* input of a simulation run — protocol
    name, every scenario field, every protocol-config field — so its
    content hash (:meth:`key`) is a sound cache key: equal keys mean
    equal :class:`RunResult`.
    """

    protocol: str
    scenario: Scenario
    protocol_config: Optional[Any] = None
    count_hello_cost: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe description of every run parameter."""
        config = self.protocol_config
        scenario = dataclasses.asdict(self.scenario)
        # Fault-free scenarios must hash to the key they had before the
        # fault layer existed, so a populated cache survives the
        # upgrade: drop the entry entirely unless faults actually act.
        faults = self.scenario.faults
        if faults is None or faults.is_null():
            scenario.pop("faults", None)
        # Likewise for tracing: untraced scenarios keep the cache key
        # they had before the observability layer existed.
        if not scenario.get("trace"):
            scenario.pop("trace", None)
        # And for metrics: unsampled scenarios keep the pre-metrics
        # key (the period is meaningless without sampling, so it is
        # dropped together with the flag).
        if not scenario.get("metrics"):
            scenario.pop("metrics", None)
            scenario.pop("metrics_period", None)
        return {
            "protocol": self.protocol,
            "scenario": scenario,
            "config_class": type(config).__name__ if config is not None else None,
            "config": dataclasses.asdict(config) if config is not None else None,
            "count_hello_cost": self.count_hello_cost,
        }

    def key(self) -> str:
        """Stable content hash of the spec (hex, 16 bytes).

        Canonical JSON with sorted keys, so field ordering and dict
        iteration order cannot perturb the key across processes or
        Python versions.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def derive_seeds(master_seed: int, count: int,
                 label: str = "sweep") -> Tuple[int, ...]:
    """``count`` per-replicate seeds derived from one sweep master seed.

    Uses :func:`repro.sim.rng.spawn_key`, so seed ``i`` depends only on
    ``(master_seed, label, i)`` — stable across runs, machines and
    worker scheduling.  Seeds are folded into 31 bits to stay friendly
    to every consumer (``random.Random`` takes anything, but small
    positive ints read better in artifacts and CLI output).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return tuple(
        spawn_key(master_seed, label, i) % (2 ** 31) for i in range(count)
    )


def expand_grid(
    protocols: Sequence[str],
    scenarios: Sequence[Scenario],
    configs: Optional[Dict[str, Any]] = None,
) -> List[RunSpec]:
    """The full cross product ``protocols x scenarios`` as RunSpecs.

    ``configs`` optionally maps a protocol name to the protocol config
    its cells should use (protocols not in the map run their default).
    Order is deterministic: scenarios vary fastest, protocols slowest —
    the same order a serial nested loop would visit.
    """
    configs = configs or {}
    return [
        RunSpec(protocol=protocol, scenario=scenario,
                protocol_config=configs.get(protocol))
        for protocol in protocols
        for scenario in scenarios
    ]


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec to completion (the unit of work a worker executes).

    Module-level (not a method) so it pickles cleanly into
    :class:`concurrent.futures.ProcessPoolExecutor` workers.
    """
    from repro.experiments.runner import ScenarioRunner

    return ScenarioRunner(
        spec.scenario, spec.protocol, spec.protocol_config,
        count_hello_cost=spec.count_hello_cost,
    ).run()


def _execute_timed(spec: RunSpec) -> Tuple[RunResult, float]:
    start = time.perf_counter()
    result = execute_spec(spec)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------
class RunCache:
    """Content-addressed on-disk store of serialized RunResults.

    One JSON file per run spec, named by :meth:`RunSpec.key`.  Writes
    go through a temp file + rename so a killed sweep never leaves a
    half-written entry under a valid key.  Any unreadable, unparsable
    or version-mismatched entry is treated as a miss (and counted, so
    sweeps can report it) — the executor then simply re-runs the cell.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, spec: RunSpec) -> Path:
        return self.root / f"{spec.key()}.json"

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or None on miss/corruption."""
        path = self.path_for(spec)
        try:
            payload = json.loads(path.read_text())
            if payload.get("version") != CACHE_FORMAT_VERSION:
                return None
            return RunResult.from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupted entry: drop it so the rewrite after the re-run
            # restores a clean cache.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, spec: RunSpec, result: RunResult,
            elapsed: Optional[float] = None) -> Path:
        """Store ``result`` under ``spec``'s key; returns the file path."""
        path = self.path_for(spec)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
            "elapsed_s": elapsed,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ---------------------------------------------------------------------------
# Streaming cells and incremental aggregation
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One completed sweep cell, as yielded by :meth:`SweepExecutor.stream`.

    ``duration`` is seconds of compute (0.0 for cache hits); ``index``
    is the cell's position in the input spec sequence, so consumers can
    re-align streamed cells with their grid without materializing it.
    """

    index: int
    spec: RunSpec
    result: RunResult
    duration: float
    cached: bool


class SweepSummary:
    """Incrementally folded sweep aggregates.

    The streaming counterpart of :class:`SweepReport`'s aggregate
    methods: feed cells one at a time through :meth:`fold` and read the
    same totals a materialized report would produce — byte-identical,
    not merely equal.  Folds are kept exact by construction: integer
    counter sums are associative, histogram buckets are fixed-width
    elementwise sums, and cells arrive in spec order from both
    :meth:`SweepExecutor.stream` and :meth:`SweepReport.stream`, so
    ``json.dumps`` of the folded totals matches the materialized
    aggregates byte for byte.

    ``compute_s`` (summed wall-clock compute) is reported for humans
    but deliberately excluded from :meth:`to_dict`/:meth:`to_json`:
    the canonical payload contains only run-content facts, so two
    sweeps over the same specs serialize identically regardless of
    machine speed.
    """

    def __init__(self) -> None:
        self.cells = 0
        self.executed = 0
        self.cached = 0
        self.compute_s = 0.0
        self._perf: Dict[str, int] = {}
        self._histograms: Dict[str, List[int]] = {}
        self._spans: Dict[str, int] = {}
        self._metrics: Dict[str, List[int]] = {}

    def fold(self, cell: SweepCell) -> "SweepSummary":
        """Absorb one cell; returns self for chaining."""
        self.cells += 1
        if cell.cached:
            self.cached += 1
        else:
            self.executed += 1
        self.compute_s += cell.duration
        result = cell.result
        for name, count in result.perf_counters.items():
            self._perf[name] = self._perf.get(name, 0) + count
        if result.obs_histograms:
            self._histograms = merge_histograms(
                self._histograms, result.obs_histograms)
        for outcome, count in result.obs_spans.items():
            self._spans[outcome] = self._spans.get(outcome, 0) + count
        if result.obs_metrics:
            self._metrics = merge_series(self._metrics, result.obs_metrics)
        return self

    # -- aggregates ------------------------------------------------------
    def cache_hit_rate(self) -> float:
        return (self.cached / self.cells) if self.cells else 0.0

    def perf_totals(self) -> Dict[str, int]:
        """Sum of every run's deterministic perf counters (cache hits
        contribute the counters recorded when the cell was computed)."""
        return dict(sorted(self._perf.items()))

    def obs_histogram_totals(self) -> Dict[str, List[int]]:
        """Elementwise sum of every run's span latency histograms
        (empty when no cell was traced)."""
        return dict(sorted(self._histograms.items()))

    def obs_span_totals(self) -> Dict[str, int]:
        """Span count per outcome, summed across traced cells."""
        return dict(sorted(self._spans.items()))

    def obs_metric_totals(self) -> Dict[str, List[int]]:
        """Elementwise sum of every run's gauge series (empty when no
        cell sampled metrics); see :func:`repro.obs.merge_series`."""
        return dict(sorted(self._metrics.items()))

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-safe payload (no wall-clock fields)."""
        return {
            "cells": self.cells,
            "executed": self.executed,
            "cached": self.cached,
            "cache_hit_rate": self.cache_hit_rate(),
            "perf_totals": self.perf_totals(),
            "obs_histogram_totals": self.obs_histogram_totals(),
            "obs_span_totals": self.obs_span_totals(),
            "obs_metric_totals": self.obs_metric_totals(),
        }

    def to_json(self) -> str:
        """Canonical serialization (sorted keys) for byte comparison."""
        return json.dumps(self.to_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class SweepReport:
    """Everything a sweep produced, cell-aligned with the input specs."""

    specs: List[RunSpec]
    results: List[RunResult]
    durations: List[float]          # seconds of compute; 0.0 for cache hits
    cached: List[bool]              # True where the cache supplied the cell
    stats: Counters                 # scheduled / executed / cache_hit / ...
    wall_clock_s: float = 0.0

    def cache_hit_rate(self) -> float:
        """Fraction of cells served from cache (0.0 with no cells)."""
        return (sum(self.cached) / len(self.cached)) if self.cached else 0.0

    def summary(self) -> SweepSummary:
        """Fold the whole report into a :class:`SweepSummary`.

        Byte-identical to folding the live stream that produced this
        report: ``report.summary().to_json()`` equals the ``to_json``
        of a summary folded cell-by-cell during execution.
        """
        summary = SweepSummary()
        for i, spec in enumerate(self.specs):
            summary.fold(SweepCell(
                index=i, spec=spec, result=self.results[i],
                duration=self.durations[i], cached=self.cached[i]))
        return summary


class SweepExecutor:
    """Fans RunSpecs out over worker processes, with caching.

    Args:
        workers: process count.  ``None`` reads ``REPRO_SWEEP_WORKERS``,
            falling back to ``os.cpu_count()``; ``0`` or ``1`` runs
            serially in-process (no pool, no pickling) — the mode CI
            and the tier-1 tests use.
        cache_dir: where to persist results.  ``None`` reads
            ``REPRO_SWEEP_CACHE``; if that is unset too, runs are not
            cached.
        progress: optional callback ``(done, total, spec)`` invoked
            after every cell completes (executed or cache hit).

    Determinism: each cell's randomness is fully determined by its spec
    (see the module docstring), and results are returned in spec order
    regardless of completion order, so ``run(specs)`` is bit-identical
    for any worker count.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        progress: Optional[Callable[[int, int, RunSpec], None]] = None,
    ) -> None:
        if workers is None:
            env = os.environ.get(WORKERS_ENV, "").strip()
            workers = int(env) if env else (os.cpu_count() or 1)
        if workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = workers
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_ENV, "").strip() or None
        self.cache = RunCache(cache_dir) if cache_dir is not None else None
        self.progress = progress
        self.stats = Counters()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> SweepReport:
        """Execute every spec (or serve it from cache); specs order kept.

        Materializes :meth:`stream` — same execution, same stats, with
        every cell retained in a :class:`SweepReport`.
        """
        specs = list(specs)
        started = time.perf_counter()
        total = len(specs)

        results: List[Optional[RunResult]] = [None] * total
        durations: List[float] = [0.0] * total
        cached: List[bool] = [False] * total
        for cell in self.stream(specs):
            results[cell.index] = cell.result
            durations[cell.index] = cell.duration
            cached[cell.index] = cell.cached

        report = SweepReport(
            specs=specs,
            results=[r for r in results if r is not None],
            durations=durations,
            cached=cached,
            stats=self.stats,
            wall_clock_s=time.perf_counter() - started,
        )
        if len(report.results) != total:
            # stream() raises on failure, so this is purely defensive.
            raise RuntimeError("sweep lost results for some specs")
        return report

    def stream(self, specs: Sequence[RunSpec]) -> Iterator[SweepCell]:
        """Yield each cell as it completes, strictly in spec order.

        The streaming core of the executor: cache lookups happen up
        front, pending cells execute serially in-process or fan out
        over the worker pool, and completed cells are yielded in spec
        order regardless of completion order.  A consumer that folds
        the stream through :class:`SweepSummary` therefore computes
        byte-identical aggregates to materializing a full
        :class:`SweepReport` first — while holding only the
        not-yet-yielded results in memory, which is what lets a 10k+
        cell sweep report totals without storing every RunResult.

        Abandoning the iterator early cancels not-yet-started cells.
        """
        specs = list(specs)
        total = len(specs)
        self.stats.incr("scheduled", total)

        # A run feeds the --trace-out / --metrics-out sink while it
        # executes, so a cell served from the cache would export
        # nothing: with a sink set every cell runs (and is re-stored).
        exporting = (trace_export_path() is not None
                     or metrics_export_path() is not None)
        read_from = None if exporting else self.cache
        hits: Dict[int, RunResult] = {}
        pending: List[int] = []
        for i, spec in enumerate(specs):
            hit = read_from.get(spec) if read_from is not None else None
            if hit is not None:
                hits[i] = hit
                self.stats.incr("cache_hit")
            else:
                if read_from is not None:
                    self.stats.incr("cache_miss")
                pending.append(i)

        if self.workers > 1 and len(pending) > 1:
            computed = self._parallel_iter(specs, pending)
        else:
            computed = (self._execute_one(specs[i]) for i in pending)
        try:
            done = 0
            for i, spec in enumerate(specs):
                if i in hits:
                    cell = SweepCell(index=i, spec=spec, result=hits.pop(i),
                                     duration=0.0, cached=True)
                else:
                    result, elapsed = next(computed)
                    cell = SweepCell(index=i, spec=spec, result=result,
                                     duration=elapsed, cached=False)
                done += 1
                self._report(done, total, spec)
                yield cell
        finally:
            computed.close()

    def _parallel_iter(
        self, specs: Sequence[RunSpec], pending: Sequence[int],
    ) -> Iterator[Tuple[RunResult, float]]:
        """(result, elapsed) for each pending index, in pending order.

        All pending cells are submitted to the pool immediately;
        results are consumed (and their future references dropped) in
        submission order, so completed-but-unyielded cells are the only
        extra memory.  Closing the iterator cancels unstarted futures.
        """
        workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                i: pool.submit(_execute_timed, specs[i]) for i in pending
            }
            try:
                for i in pending:
                    try:
                        result, elapsed = futures.pop(i).result()
                    except Exception:
                        self.stats.incr("failed")
                        raise
                    self.stats.incr("executed")
                    if self.cache is not None:
                        self.cache.put(specs[i], result, elapsed)
                    yield result, elapsed
            finally:
                for future in futures.values():
                    future.cancel()

    # ------------------------------------------------------------------
    def _execute_one(self, spec: RunSpec) -> Tuple[RunResult, float]:
        try:
            result, elapsed = _execute_timed(spec)
        except Exception:
            self.stats.incr("failed")
            raise
        self.stats.incr("executed")
        if self.cache is not None:
            self.cache.put(spec, result, elapsed)
        return result, elapsed

    def _report(self, done: int, total: int, spec: RunSpec) -> None:
        if self.progress is not None:
            self.progress(done, total, spec)


# ---------------------------------------------------------------------------
# Process-wide default executor (a figure's fallback when handed none)
# ---------------------------------------------------------------------------
_default_executor: Optional[SweepExecutor] = None


def default_executor() -> SweepExecutor:
    """The executor a figure sweep uses when its caller passes none.

    Unless configured via :func:`set_default_executor` or the
    ``REPRO_SWEEP_WORKERS`` / ``REPRO_SWEEP_CACHE`` environment
    variables, this is a serial, uncached executor — exactly the
    behavior the pre-sweep serial loops had, keeping tests and CI
    deterministic with zero extra processes.
    """
    global _default_executor
    if _default_executor is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        workers = int(env) if env else 1
        _default_executor = SweepExecutor(workers=workers)
    return _default_executor


def set_default_executor(executor: Optional[SweepExecutor]) -> None:
    """Install (or with ``None`` reset) the process-wide executor."""
    global _default_executor
    _default_executor = executor
