"""Run-level metrics time series (``repro metrics`` / ``--metrics``).

Spans (:mod:`repro.obs.spans`) answer "what happened to one
allocation"; the scalar counters on a
:class:`~repro.experiments.metrics.RunResult` answer "how much work did
the whole run do".  This module answers the question in between — *how
did the system evolve over the run*: role churn, address-pool
utilization, component count, message rates, heap pressure, sampled on
a fixed simulation-time cadence.

Design rules, matching the tracing layer:

* **Deterministic.**  Sampling rides a
  :class:`~repro.sim.timers.PeriodicTimer` on the run's own simulator,
  so sample times are simulation times: a serial run and a parallel
  sweep worker produce byte-identical series.
* **Read-only.**  Every gauge is a passive read — one walk over the
  registered agents (role, QDSet, vote timers, pool introspection), the
  context's count of bound addresses, the *stale*
  component count (:meth:`Topology.component_count_stale`,
  which never forces a rebuild) — so an attached recorder cannot
  perturb protocol behavior, RNG draws or perf counters.
* **Zero overhead when absent.**  Nothing is scheduled and nothing is
  sampled unless a recorder is attached; metrics-off runs execute the
  exact pre-metrics event sequence.

The recorder produces ``{metric name: [v0, v1, ...]}`` where sample
``i`` was taken at sim time ``i * period``.  Metric names come from the
:mod:`repro.obs.metric_names` registry (enforced by the whole-program
lint); message/drop series are per-interval deltas of the cumulative
transport counters, i.e. rates per sample period.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import metric_names as mn
from repro.sim.timers import PeriodicTimer

#: Default sampling cadence in simulated seconds.
DEFAULT_PERIOD = 1.0


class MetricsRecorder:
    """Samples run-level gauges on a fixed sim-time cadence.

    Attach to a :class:`~repro.net.context.NetworkContext` before the
    run starts; the recorder arms a periodic timer (first sample at
    t=0) and appends one value per metric per tick.  A tick a series
    was not recorded on — before its vocabulary appeared (a role
    interned after bootstrap) or while a role had no member — reads 0,
    so sample ``i`` of every series is the value at tick ``i``.

    Example:
        >>> from repro.net.context import NetworkContext
        >>> ctx = NetworkContext.build(seed=1)
        >>> recorder = MetricsRecorder(period=2.0).attach(ctx)
        >>> ctx.sim.run(until=4.0)
        >>> recorder.samples
        3
        >>> recorder.series()["agents_live"]
        [0, 0, 0]
    """

    def __init__(self, period: float = DEFAULT_PERIOD) -> None:
        if period <= 0:
            raise ValueError("metrics sample period must be positive")
        self.period = period
        self._ctx: Optional[Any] = None
        self._timer: Optional[PeriodicTimer] = None
        self._series: Dict[str, List[int]] = {}
        self._samples = 0
        self._last_msgs: Dict[str, int] = {}
        self._last_drops: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def attach(self, ctx: Any) -> "MetricsRecorder":
        """Arm the sampling timer on ``ctx``'s simulator; returns self."""
        if self._timer is not None:
            raise RuntimeError("recorder is already attached")
        self._ctx = ctx
        self._timer = PeriodicTimer(ctx.sim, self.period, self._sample)
        self._timer.start(first_delay=0.0)
        return self

    def detach(self) -> None:
        """Stop sampling (recorded series stay readable)."""
        if self._timer is not None:
            self._timer.stop()
            self._timer = None
        self._ctx = None

    @property
    def samples(self) -> int:
        """Number of sampling ticks taken so far."""
        return self._samples

    def __len__(self) -> int:
        return self._samples

    # ------------------------------------------------------------------
    def record(self, name: str, value: int) -> None:
        """Record ``value`` as ``name``'s sample of the current tick.

        Intended for :func:`sample_gauges`; the ticks the series missed
        since it was last recorded (all of them, for a new name) are
        filled with 0 first, so all series stay aligned on the same
        time buckets.
        """
        series = self._series.setdefault(name, [])
        series.extend([0] * (self._samples - 1 - len(series)))
        series.append(int(value))

    def _sample(self) -> None:
        self._samples += 1
        assert self._ctx is not None
        sample_gauges(self._ctx, self)

    def series(self) -> Dict[str, List[int]]:
        """``{name: values}``, name-sorted, all padded to full length."""
        out: Dict[str, List[int]] = {}
        for name in sorted(self._series):
            values = self._series[name]
            if len(values) < self._samples:
                values = values + [0] * (self._samples - len(values))
            out[name] = list(values)
        return out


def sample_gauges(ctx: Any, metrics: MetricsRecorder) -> None:
    """Take one sample of every registered gauge from ``ctx``.

    Everything read here is passive: agent attributes, cached topology
    facts, cumulative transport counters.  No call may force a graph
    rebuild, touch an RNG stream or bump a perf counter — that is what
    keeps metrics-on runs bit-identical to metrics-off runs everywhere
    outside ``obs_metrics``.
    """
    metrics.record(mn.AGENTS_LIVE, len(ctx.agents))
    metrics.record(mn.AGENTS_CONFIGURED, ctx.bound_address_count())

    role_counts: Dict[str, int] = {}
    qdset_total = 0
    vote_timers = 0
    free = 0
    allocated = 0
    for agent in ctx.agents.values():
        role = getattr(agent, "role", None)
        name = "" if role is None else role.value
        role_counts[name] = role_counts.get(name, 0) + 1
        vote_timers += getattr(agent, "live_vote_timers", 0)
        head = getattr(agent, "head", None)
        if head is None:
            continue
        qdset_total += len(head.qdset)
        if not agent.node.alive:
            continue
        pool = getattr(head, "pool", None)
        if pool is None:
            continue
        free += pool.free_count()
        allocated += pool.allocated_count()
    metrics.record(mn.QDSET_SIZE_TOTAL, qdset_total)
    metrics.record(mn.VOTE_TIMERS, vote_timers)
    for role in sorted(role_counts):
        metrics.record(mn.role_metric(role), role_counts[role])
    metrics.record(mn.POOL_FREE, free)
    metrics.record(mn.POOL_ALLOCATED, allocated)

    topology = ctx.topology
    metrics.record(mn.COMPONENT_COUNT, topology.component_count_stale())
    metrics.record(mn.GRAPH_VERSION, topology.graph_version)

    sim = ctx.sim
    metrics.record(mn.HEAP_SIZE, sim.heap_size)
    metrics.record(mn.HEAP_COMPACTIONS, sim.compactions)
    metrics.record(mn.PENDING_EVENTS, sim.pending_events)

    # Message/drop rates: per-interval deltas of the cumulative
    # transport counters.  snapshot() enumerates every category, so the
    # series key set is fixed from the first sample.
    snapshot = ctx.stats.snapshot()
    drops = ctx.stats.drops_snapshot()
    for category in sorted(snapshot):
        total = snapshot[category][1]
        last = metrics._last_msgs.get(category, 0)
        metrics._last_msgs[category] = total
        metrics.record(mn.msg_metric(category), total - last)
        dropped = drops.get(category, 0)
        last_dropped = metrics._last_drops.get(category, 0)
        metrics._last_drops[category] = dropped
        metrics.record(mn.drop_metric(category), dropped - last_dropped)


# ---------------------------------------------------------------------------
# Aggregation (the SweepSummary / SweepReport folding primitive)
# ---------------------------------------------------------------------------
def merge_series(
    base: Dict[str, List[int]],
    extra: Dict[str, List[int]],
) -> Dict[str, List[int]]:
    """Elementwise sum of two series maps (ragged tails zero-extended).

    The metrics analogue of :func:`repro.obs.spans.merge_histograms`:
    associative and order-independent given a fixed cell order, so
    streamed sweep folds match materialized aggregates byte for byte.
    """
    merged: Dict[str, List[int]] = {k: list(v) for k, v in base.items()}
    for name, values in extra.items():
        into = merged.setdefault(name, [])
        if len(into) < len(values):
            into.extend([0] * (len(values) - len(into)))
        for i, value in enumerate(values):
            into[i] += value
    return merged


# ---------------------------------------------------------------------------
# Serialization (CSV / JSONL export and reload)
# ---------------------------------------------------------------------------
def series_to_jsonl(
    series: Dict[str, List[int]],
    period: float,
    meta: Optional[Dict[str, Any]] = None,
) -> str:
    """One run's series as canonical JSONL (header line + one line per
    metric, name-sorted).  Loadable by :func:`series_from_jsonl`."""
    header: Dict[str, Any] = {"period": period,
                              "samples": max((len(v) for v in series.values()),
                                             default=0)}
    if meta:
        header.update(meta)
    lines = [json.dumps({"metrics": header},
                        sort_keys=True, separators=(",", ":"))]
    for name in sorted(series):
        lines.append(json.dumps({"name": name, "values": series[name]},
                                sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def series_from_jsonl(
    text: str,
) -> List[Tuple[Dict[str, Any], Dict[str, List[int]]]]:
    """Parse JSONL written by :func:`series_to_jsonl` (one or more
    concatenated blocks) back into ``(header, series)`` pairs."""
    blocks: List[Tuple[Dict[str, Any], Dict[str, List[int]]]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        if "metrics" in payload:
            blocks.append((payload["metrics"], {}))
        elif "name" in payload:
            if not blocks:
                raise ValueError("metric line before any metrics header")
            blocks[-1][1][payload["name"]] = [int(v) for v in payload["values"]]
        else:
            raise ValueError(f"unrecognized metrics line: {line[:80]}")
    return blocks


def series_to_csv(series: Dict[str, List[int]], period: float) -> str:
    """Wide CSV: one ``time`` column plus one column per metric."""
    names = sorted(series)
    samples = max((len(series[n]) for n in names), default=0)
    lines = [",".join(["time"] + names)]
    for i in range(samples):
        row = [f"{i * period:g}"]
        for name in names:
            values = series[name]
            row.append(str(values[i]) if i < len(values) else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Process-wide export sink (the CLI's --metrics-out flag)
# ---------------------------------------------------------------------------
_EXPORT_PATH: Optional[str] = None


def set_metrics_export(path: Optional[str]) -> None:
    """Install (or with ``None`` reset) the JSONL metrics sink.

    Mirrors :func:`repro.obs.record.set_trace_export`: process-wide by
    design — the CLI forces serial execution while a sink is set, so
    worker processes never inherit (or race on) the file.
    """
    global _EXPORT_PATH
    _EXPORT_PATH = path


def metrics_export_path() -> Optional[str]:
    """The active metrics sink path, or None."""
    return _EXPORT_PATH
