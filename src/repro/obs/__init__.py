"""Structured observability: event bus, typed events, spans, tracing,
metrics and the subsystem profiler.

The protocol layers publish frozen typed events onto a per-run
:class:`~repro.obs.bus.EventBus` (``ctx.obs``).  With no subscribers the
bus is falsy and emission sites skip event construction entirely —
tracing costs nothing unless something listens.  A deterministic
correlation id threads each configuration transaction through
``Message.corr``, so a recorded stream reconstructs every allocation as
a span (REQ → votes → write-back) with per-phase sim-time latency.

On top of the event stream sit two run-level instruments:

* :class:`~repro.obs.metrics.MetricsRecorder` samples gauges (role
  counts, pool utilization, component count, message rates, heap
  pressure) on a fixed sim-time cadence — deterministic series that
  aggregate across sweeps (``repro metrics`` / ``--metrics``).
* :class:`~repro.obs.profile.SubsystemProfiler` attributes event wall
  clock to packages (``repro.net`` / ``repro.sim`` / ... ) —
  non-deterministic by nature, so it is excluded from cache keys and
  result payloads; the perf ledger (``obs.profiler_overhead_ratio``,
  and ``package_of`` as its tracer's span key) is its rider.

See docs/ARCHITECTURE.md ("Observability layer") and ``repro trace``.
"""

from repro.obs.bus import EventBus
from repro.obs.metrics import (
    MetricsRecorder,
    merge_series,
    metrics_export_path,
    sample_gauges,
    series_from_jsonl,
    series_to_csv,
    series_to_jsonl,
    set_metrics_export,
)
from repro.obs.profile import SubsystemProfiler, package_of
from repro.obs.record import (
    TraceRecorder,
    events_from_jsonl,
    events_to_jsonl,
    filter_events,
    set_trace_export,
    trace_export_path,
)
from repro.obs.spans import (
    BUCKET_EDGES,
    Span,
    build_spans,
    merge_histograms,
    span_histograms,
    span_outcomes,
)

__all__ = [
    "EventBus",
    "TraceRecorder",
    "events_to_jsonl",
    "events_from_jsonl",
    "filter_events",
    "set_trace_export",
    "trace_export_path",
    "MetricsRecorder",
    "sample_gauges",
    "merge_series",
    "series_to_jsonl",
    "series_from_jsonl",
    "series_to_csv",
    "set_metrics_export",
    "metrics_export_path",
    "SubsystemProfiler",
    "package_of",
    "BUCKET_EDGES",
    "Span",
    "build_spans",
    "span_histograms",
    "merge_histograms",
    "span_outcomes",
]
