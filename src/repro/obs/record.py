"""Recording subscriber and the JSONL on-disk format.

A :class:`TraceRecorder` subscribes to an :class:`~repro.obs.bus.EventBus`
and keeps every event in arrival order (which, the bus being synchronous,
is emission order — deterministic for a seeded run).  Recorded streams
filter by node / event type / span / time window and round-trip through
JSONL: one ``{"etype": ..., ...fields}`` object per line, canonical key
order, so identical runs export byte-identical files (the trace-smoke CI
job asserts exactly this).

A process-wide export path (:func:`set_trace_export`) lets the CLI's
``--trace-out`` collect JSONL from runs it does not construct directly
(``repro figure`` / serial ``repro sweep``).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Optional, Sequence

from repro.obs.bus import EventBus
from repro.obs.events import from_record, to_record


def event_to_json(event: Any) -> str:
    """One canonical JSONL line for ``event`` (no trailing newline)."""
    return json.dumps(to_record(event), sort_keys=True,
                      separators=(",", ":"))


def events_to_jsonl(events: Iterable[Any]) -> str:
    """The canonical JSONL document for an event stream."""
    return "".join(event_to_json(event) + "\n" for event in events)


def events_from_jsonl(text: str) -> List[Any]:
    """Parse a JSONL document back into events.

    Lines without an ``etype`` key (per-run header records written by
    multi-run exports) are skipped.
    """
    events: List[Any] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if "etype" in record:
            events.append(from_record(record))
    return events


def filter_events(
    events: Iterable[Any],
    nodes: Optional[Sequence[int]] = None,
    etypes: Optional[Sequence[str]] = None,
    corr: Optional[int] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[Any]:
    """Select events by node, event type, span and time window."""
    node_set = set(nodes) if nodes else None
    etype_set = set(etypes) if etypes else None
    selected = []
    for event in events:
        if node_set is not None and event.node not in node_set:
            continue
        if etype_set is not None and event.etype not in etype_set:
            continue
        if corr is not None and event.corr != corr:
            continue
        if since is not None and event.time < since:
            continue
        if until is not None and event.time > until:
            continue
        selected.append(event)
    return selected


class TraceRecorder:
    """Records bus events; optionally pre-filtered, always bounded.

    Events past ``limit`` are counted in :attr:`truncated` rather than
    silently discarded, so a capped recording is distinguishable from a
    complete one.
    """

    def __init__(self, limit: int = 1_000_000,
                 etypes: Optional[Sequence[str]] = None,
                 nodes: Optional[Sequence[int]] = None) -> None:
        self.events: List[Any] = []
        self.truncated = 0
        self._limit = limit
        self._etypes = set(etypes) if etypes else None
        self._nodes = set(nodes) if nodes else None
        self._bus: Optional[EventBus] = None

    # ------------------------------------------------------------------
    def attach(self, bus: EventBus) -> "TraceRecorder":
        if self._bus is not None:
            raise RuntimeError("recorder already attached")
        self._bus = bus
        bus.subscribe(self._on_event)
        return self

    def detach(self) -> None:
        if self._bus is None:
            return
        self._bus.unsubscribe(self._on_event)
        self._bus = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.detach()

    # ------------------------------------------------------------------
    def _on_event(self, event: Any) -> None:
        if self._etypes is not None and event.etype not in self._etypes:
            return
        if self._nodes is not None and event.node not in self._nodes:
            return
        if len(self.events) >= self._limit:
            self.truncated += 1
            return
        self.events.append(event)

    # ------------------------------------------------------------------
    def filter(self, nodes: Optional[Sequence[int]] = None,
               etypes: Optional[Sequence[str]] = None,
               corr: Optional[int] = None,
               since: Optional[float] = None,
               until: Optional[float] = None) -> List[Any]:
        return filter_events(self.events, nodes=nodes, etypes=etypes,
                             corr=corr, since=since, until=until)

    def to_jsonl(self) -> str:
        return events_to_jsonl(self.events)

    def __len__(self) -> int:
        return len(self.events)


# ----------------------------------------------------------------------
# Process-wide JSONL export sink (CLI --trace-out plumbing)
# ----------------------------------------------------------------------
_EXPORT_PATH: Optional[str] = None


def set_trace_export(path: Optional[str]) -> None:
    """Route every traced run's JSONL to ``path`` (append); ``None``
    disables the sink.  Serial execution only: worker processes of a
    parallel sweep never inherit the sink.  Only an executed run
    exports, so the sweep executor reads no cached cell while a sink
    (this one or the metrics one) is set."""
    global _EXPORT_PATH
    _EXPORT_PATH = path


def trace_export_path() -> Optional[str]:
    return _EXPORT_PATH
