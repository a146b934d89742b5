"""Parallel sweep executor with deterministic seeding and a run cache.

The paper's evaluation is a grid: five protocols x several scenario
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

    from repro.experiments.sweep import RunSpec, SweepExecutor, SweepSummary

    specs = [RunSpec(protocol=p, scenario=sc)
             for p in ("quorum", "manetconf") for sc in scenarios]
    summary = SweepSummary()
    for cell in SweepExecutor(workers=8, cache_dir="~/.repro-cache").run(specs):
        print(cell.spec.protocol, cell.result.avg_config_latency_hops())
        summary.fold(cell)
    print(summary.executed, summary.cached, summary.perf_totals())

:meth:`SweepExecutor.run` yields one :class:`SweepCell` per spec,
strictly in spec order, while later cells still execute; folding them
through :class:`SweepSummary` keeps memory bounded by the
not-yet-yielded cells, and the folded perf and observability totals are
byte-identical for any worker count and any mix of fresh and cached
cells.

A figure function (:mod:`repro.experiments.figures`) hands its whole
(curve x x-value x seed) grid to the executor it is given; given none,
it runs on a fresh ``SweepExecutor()`` — serial and uncached, so tests
and CI stay deterministic and dependency-free by default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.experiments.metrics import RunResult
from repro.experiments.scenario import Scenario
from repro.obs import merge_series
from repro.sim.rng import spawn_key

CACHE_FORMAT_VERSION = 2


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


def execute_spec(spec: RunSpec, trace_out: Optional[str] = None,
                 metrics_out: Optional[str] = None,
                 ) -> Tuple[RunResult, float]:
    """Run one spec to completion (the unit of work a worker executes):
    its result and the seconds of compute it took.  The run appends its
    trace / metrics JSONL to ``trace_out`` / ``metrics_out`` when given.

    Module-level (not a method) so it pickles cleanly into
    :class:`concurrent.futures.ProcessPoolExecutor` workers.  It only
    computes: the executor stores what it returns.
    """
    from repro.experiments.runner import ScenarioRunner

    start = time.perf_counter()
    result = ScenarioRunner(
        spec.scenario, spec.protocol, spec.protocol_config,
        trace_out=trace_out, metrics_out=metrics_out).run()
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------
class RunCache:
    """Content-addressed on-disk store of serialized RunResults.

    One JSON file per run spec, named by :meth:`RunSpec.key`.  Writes
    go through a temp file of the writer's own + rename, so a killed
    sweep never leaves a half-written entry under a valid key and two
    processes filling one directory never share a temp file.  Any
    unreadable, unparsable or version-mismatched entry is treated as a
    miss — the executor then simply re-runs the cell.
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
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload))
        os.chmod(tmp, 0o644)  # mkstemp's 0600 would hide it from others
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


# ---------------------------------------------------------------------------
# Cells and their one tally
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One completed sweep cell, as yielded by :meth:`SweepExecutor.run`;
    ``duration`` is seconds of compute (0.0 for cache hits)."""

    spec: RunSpec
    result: RunResult
    duration: float
    cached: bool


class SweepSummary:
    """A sweep's aggregates, folded one cell at a time.

    The one place a sweep's tallies live: feed cells through
    :meth:`fold` (or pass them to the constructor).  Folds are exact by
    construction: integer counter sums are associative, histogram
    buckets are fixed-width elementwise sums, and
    :meth:`SweepExecutor.run` yields cells in spec order, so the perf
    and observability totals serialize byte-identically for any worker
    count and whether a cell was computed or read from the cache.

    ``compute_s`` (summed wall-clock compute) is reported for humans
    but deliberately excluded from :meth:`to_dict`/:meth:`to_json`:
    the canonical payload contains only run-content facts, so two
    sweeps over the same specs serialize identically regardless of
    machine speed.
    """

    def __init__(self, cells: Iterable[SweepCell] = ()) -> None:
        self.cells = 0
        self.executed = 0
        self.cached = 0
        self.compute_s = 0.0
        self._perf: Dict[str, int] = {}
        self._histograms: Dict[str, List[int]] = {}
        self._spans: Dict[str, int] = {}
        self._metrics: Dict[str, List[int]] = {}
        for cell in cells:
            self.fold(cell)

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
            self._histograms = merge_series(
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
class SweepExecutor:
    """Fans RunSpecs out over worker processes, with caching.

    Args:
        workers: process count; ``1`` (the default) runs serially
            in-process (no pool, no pickling) — the mode CI and the
            tier-1 tests use — and ``0`` means every core.  A negative
            count is refused.
        cache_dir: where to persist results; ``None`` caches nothing.
        trace_out, metrics_out: files every executed run appends its
            trace / metrics JSONL to.  A run feeds them while it
            executes, so with either set every cell runs in-process,
            serially and in spec order (worker processes would race on
            the files), and no cell is read from the cache (a hit would
            export nothing); results are still stored.

    Determinism: each cell's randomness is fully determined by its spec
    (see the module docstring), and cells are yielded in spec order
    regardless of completion order, so ``run(specs)`` is bit-identical
    for any worker count.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(
                f"workers must be >= 0 (0 = every core), got {workers}")
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.exporting = trace_out is not None or metrics_out is not None
        self.workers = 1 if self.exporting else (
            workers or os.cpu_count() or 1)
        self.cache = RunCache(cache_dir) if cache_dir is not None else None

    def run(self, specs: Sequence[RunSpec]) -> Iterator[SweepCell]:
        """Yield one cell per spec, strictly in spec order.

        Cache lookups happen up front; pending cells execute serially
        in-process or fan out over the worker pool, and each computed
        cell is stored in the cache as it is yielded.  Only the
        not-yet-yielded results are held in memory, so a consumer that
        folds the cells through :class:`SweepSummary` can total a 10k+
        cell sweep without keeping every RunResult.  A failing cell
        raises here; abandoning the iterator early cancels
        not-yet-started cells.
        """
        specs = list(specs)
        read_from = None if self.exporting else self.cache
        hits: Dict[int, RunResult] = {}
        if read_from is not None:
            for i, spec in enumerate(specs):
                hit = read_from.get(spec)
                if hit is not None:
                    hits[i] = hit
        pending = [spec for i, spec in enumerate(specs) if i not in hits]

        if self.workers > 1 and len(pending) > 1:
            computed = self._pooled(pending)
        else:
            computed = (execute_spec(spec, self.trace_out, self.metrics_out)
                        for spec in pending)
        try:
            for i, spec in enumerate(specs):
                if i in hits:
                    yield SweepCell(spec, hits.pop(i), 0.0, cached=True)
                    continue
                result, elapsed = next(computed)
                if self.cache is not None:
                    self.cache.put(spec, result, elapsed)
                yield SweepCell(spec, result, elapsed, cached=False)
        finally:
            computed.close()

    def _pooled(
        self, specs: List[RunSpec],
    ) -> Iterator[Tuple[RunResult, float]]:
        """``execute_spec`` of every spec on a worker pool, in order.

        Every spec is submitted at once and each future is dropped as
        its result is taken; closing this iterator, or a cell that
        raises, cancels the cells no worker has started.
        """
        pool = ProcessPoolExecutor(max_workers=min(self.workers, len(specs)))
        try:
            yield from pool.map(execute_spec, specs)
        finally:
            pool.shutdown(cancel_futures=True)
