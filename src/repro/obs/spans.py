"""Span reconstruction: one configuration transaction per correlation id.

Every allocation attempt is a multi-step distributed transaction — the
requester's REQ, the allocator's quorum collection (per-member verdicts,
the deciding timestamp), the write-back, and the grant.  All events of
one transaction share a correlation id (> 0), so grouping a recorded
stream by ``corr`` rebuilds each transaction as a :class:`Span` with
per-phase sim-time latency:

* ``request`` — attempt start until voting opens;
* ``vote``    — voting opens until the quorum decides (or times out);
* ``write``   — decision until the commit/write-back;
* ``total``   — attempt start until the terminal event.

A span is *closed* by a terminal event: ``config.complete`` (requester
accepted), ``config.commit`` (granted, acceptance unobserved),
``config.abort``, ``config.timeout`` or ``vote.timeout``.  Spans still
``open`` at the end of a recording were cut off by the simulation
horizon.  Phase latencies aggregate into fixed-bucket histograms (bucket
edges are constants, so serial and parallel sweeps bin identically).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.obs import events as ev

#: Histogram bucket upper edges, in sim seconds; the last bucket is
#: open-ended.  Fixed at import time: binning never depends on the data.
BUCKET_EDGES = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0)

#: Span phases that get a histogram, in report order.
PHASES = ("request", "vote", "write", "total")

#: Outcome precedence: the strongest terminal observed wins.
_OUTCOME_RANK = {
    "completed": 4, "committed": 3, "aborted": 2, "timeout": 1, "open": 0,
}


@dataclasses.dataclass
class Span:
    """One reconstructed configuration transaction."""

    corr: int
    events: List[Any]
    outcome: str = "open"
    kind: str = ""                      # "common" | "head" | "first"
    requester: Optional[int] = None
    allocator: Optional[int] = None
    address: Optional[int] = None
    votes: int = 0                      # per-member verdicts observed
    deciding_ts: Optional[int] = None   # timestamp that decided the vote
    phases: Dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def started_at(self) -> float:
        return self.events[0].time

    @property
    def ended_at(self) -> float:
        return self.events[-1].time

    def vote_events(self) -> List[Any]:
        return [e for e in self.events if isinstance(e, ev.VoteReceived)]

    def terminal(self) -> Optional[Any]:
        for event in reversed(self.events):
            if event.etype in ev.TERMINAL_ETYPES:
                return event
        return None


def build_spans(events: List[Any]) -> List[Span]:
    """Group an event stream into spans, ordered by correlation id."""
    by_corr: Dict[int, List[Any]] = {}
    for event in events:
        if event.corr > 0:
            by_corr.setdefault(event.corr, []).append(event)
    return [_build_span(corr, group)
            for corr, group in sorted(by_corr.items())]


def _build_span(corr: int, events: List[Any]) -> Span:
    span = Span(corr=corr, events=events)
    first_vote_start: Optional[float] = None
    decided_at: Optional[float] = None
    written_at: Optional[float] = None
    for event in events:
        if isinstance(event, ev.AttemptStarted):
            span.requester = event.node
            span.kind = span.kind or event.kind
        elif isinstance(event, ev.ConfigRequested):
            span.allocator = event.node
            span.requester = event.requester
            span.kind = event.kind
            span.address = event.address
        elif isinstance(event, ev.VoteStarted):
            span.allocator = event.node
            span.address = event.address
            if first_vote_start is None:
                first_vote_start = event.time
        elif isinstance(event, ev.VoteReceived):
            span.votes += 1
        elif isinstance(event, ev.VoteDecided):
            span.deciding_ts = event.deciding_ts
            if decided_at is None:
                decided_at = event.time
        elif isinstance(event, (ev.WriteBack, ev.ConfigCommitted)):
            if written_at is None:
                written_at = event.time
        # Outcome: strongest terminal seen anywhere in the span.
        outcome = _outcome_of(event)
        if outcome is not None and _OUTCOME_RANK[outcome] > _OUTCOME_RANK[span.outcome]:
            span.outcome = outcome
        if isinstance(event, ev.ConfigCompleted):
            span.address = event.address
            span.kind = event.kind

    start = span.started_at
    terminal = span.terminal()
    if first_vote_start is not None:
        span.phases["request"] = first_vote_start - start
        end_of_vote = decided_at
        if end_of_vote is None:
            timeout = next((e.time for e in events
                            if isinstance(e, ev.VoteTimeout)), None)
            end_of_vote = timeout
        if end_of_vote is not None:
            span.phases["vote"] = end_of_vote - first_vote_start
        if decided_at is not None and written_at is not None:
            span.phases["write"] = written_at - decided_at
    if terminal is not None:
        span.phases["total"] = terminal.time - start
    return span


def _outcome_of(event: Any) -> Optional[str]:
    if isinstance(event, ev.ConfigCompleted):
        return "completed"
    if isinstance(event, ev.ConfigCommitted):
        return "committed"
    if isinstance(event, ev.ConfigAborted):
        return "aborted"
    if isinstance(event, (ev.ConfigTimeout, ev.VoteTimeout)):
        return "timeout"
    return None


# ----------------------------------------------------------------------
# Fixed-bucket latency histograms
# ----------------------------------------------------------------------
def _bucket_of(value: float) -> int:
    for index, edge in enumerate(BUCKET_EDGES):
        if value <= edge:
            return index
    return len(BUCKET_EDGES)


def span_histograms(spans: List[Span]) -> Dict[str, List[int]]:
    """Per-phase latency histograms, ``phase -> bucket counts``.

    Every histogram has ``len(BUCKET_EDGES) + 1`` buckets (the last is
    open-ended).  Phases a span never reached contribute nothing.
    """
    histograms = {phase: [0] * (len(BUCKET_EDGES) + 1) for phase in PHASES}
    for span in spans:
        for phase, latency in span.phases.items():
            histograms[phase][_bucket_of(latency)] += 1
    return {phase: counts for phase, counts in histograms.items()
            if any(counts)}


def span_outcomes(spans: List[Span]) -> Dict[str, int]:
    """Span count per outcome (sorted keys for stable serialization)."""
    counts: Dict[str, int] = {}
    for span in spans:
        counts[span.outcome] = counts.get(span.outcome, 0) + 1
    return dict(sorted(counts.items()))
