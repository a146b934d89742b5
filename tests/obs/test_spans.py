"""Span reconstruction, phase latencies and fixed-bucket histograms."""

import pytest

from repro.obs import (
    BUCKET_EDGES,
    TraceRecorder,
    build_spans,
    span_histograms,
    span_outcomes,
)
from repro.obs import events as ev
from repro.obs.bus import EventBus


def _transaction(corr=1, t0=10.0):
    """A complete common-address allocation, REQ -> votes -> write-back."""
    return [
        ev.AttemptStarted(time=t0, node=5, corr=corr, attempt=1,
                          kind="common", target=2),
        ev.ConfigRequested(time=t0 + 0.1, node=2, corr=corr, attempt=4,
                           requester=5, kind="common", address=9, owner=2),
        ev.VoteStarted(time=t0 + 0.1, node=2, corr=corr, attempt=4,
                       address=9, owner=2, universe=3, quorum="majority"),
        ev.VoteReceived(time=t0 + 0.1, node=2, corr=corr, attempt=4,
                        voter=2, address=9, status="free", timestamp=0),
        ev.VoteReceived(time=t0 + 0.3, node=2, corr=corr, attempt=4,
                        voter=7, address=9, status="free", timestamp=1),
        ev.VoteDecided(time=t0 + 0.3, node=2, corr=corr, attempt=4,
                       address=9, granted=True, deciding_ts=1,
                       responders=2, universe=3),
        ev.WriteBack(time=t0 + 0.4, node=2, corr=corr, owner=2, address=9,
                     status="assigned", timestamp=2, targets=(7, 8)),
        ev.ConfigCommitted(time=t0 + 0.4, node=2, corr=corr, attempt=4,
                           requester=5, address=9, kind="common",
                           borrowed=False, latency_hops=3),
        ev.ConfigCompleted(time=t0 + 0.6, node=5, corr=corr, address=9,
                           kind="common", latency_hops=3),
    ]


def test_complete_transaction_reconstructs_fully():
    (span,) = build_spans(_transaction())
    assert span.corr == 1
    assert span.outcome == "completed"
    assert span.kind == "common"
    assert span.requester == 5
    assert span.allocator == 2
    assert span.address == 9
    assert span.votes == 2
    assert span.deciding_ts == 1
    # Per-member verdicts carry status and timestamp.
    assert [(v.voter, v.status, v.timestamp)
            for v in span.vote_events()] == [(2, "free", 0), (7, "free", 1)]
    assert span.terminal().etype == "config.complete"


def test_phase_latencies_are_sim_time_deltas():
    (span,) = build_spans(_transaction(t0=10.0))
    assert span.phases["request"] == pytest.approx(0.1)
    assert span.phases["vote"] == pytest.approx(0.2)
    assert span.phases["write"] == pytest.approx(0.1)
    assert span.phases["total"] == pytest.approx(0.6)


def test_zero_corr_events_never_join_spans():
    events = _transaction() + [
        ev.QDSetChanged(time=20.0, node=2, corr=0, member=7, action="add",
                        size=3),
    ]
    spans = build_spans(events)
    assert len(spans) == 1
    assert len(spans[0].events) == len(_transaction())


def test_interleaved_transactions_separate_by_corr():
    events = sorted(_transaction(corr=1, t0=10.0)
                    + _transaction(corr=2, t0=10.2),
                    key=lambda e: e.time)
    spans = build_spans(events)
    assert [s.corr for s in spans] == [1, 2]
    assert all(s.outcome == "completed" for s in spans)


def test_vote_timeout_closes_span_as_timeout():
    t0 = 5.0
    events = _transaction(t0=t0)[:5] + [
        ev.VoteTimeout(time=t0 + 2.0, node=2, corr=1, attempt=4, address=9,
                       responders=1, universe=3, missing=(8,)),
    ]
    (span,) = build_spans(events)
    assert span.outcome == "timeout"
    assert span.terminal().missing == (8,)
    assert span.phases["vote"] == pytest.approx(1.9)


def test_abort_outranks_timeout_but_not_commit():
    base = _transaction()[:2]
    aborted = base + [ev.ConfigAborted(time=11.0, node=2, corr=1, attempt=4,
                                       requester=5, reason="dry")]
    assert build_spans(aborted)[0].outcome == "aborted"
    completed = aborted + [ev.ConfigCompleted(time=12.0, node=5, corr=1,
                                              address=9, kind="common",
                                              latency_hops=1)]
    assert build_spans(completed)[0].outcome == "completed"


def test_unterminated_span_stays_open():
    (span,) = build_spans(_transaction()[:4])
    assert span.outcome == "open"
    assert span.terminal() is None
    assert "total" not in span.phases


# --- histograms ------------------------------------------------------


def test_histograms_use_fixed_buckets():
    spans = build_spans(_transaction())
    histograms = span_histograms(spans)
    assert set(histograms) == {"request", "vote", "write", "total"}
    for counts in histograms.values():
        assert len(counts) == len(BUCKET_EDGES) + 1
        assert sum(counts) == 1
    # 0.1 lands in the second bucket (0.05 < v <= 0.1).
    assert histograms["request"][1] == 1


def test_overflow_bucket_catches_large_latencies():
    events = [
        _transaction()[0],
        ev.ConfigTimeout(time=10.0 + 99.0, node=5, corr=1, attempt=1),
    ]
    histograms = span_histograms(build_spans(events))
    assert histograms["total"][-1] == 1


def test_span_outcomes_tally_sorted():
    spans = build_spans(
        sorted(_transaction(corr=1) + _transaction(corr=2)[:2]
               + [ev.ConfigAborted(time=30.0, node=2, corr=3, attempt=1,
                                   requester=9, reason="dry")],
               key=lambda e: e.time))
    assert span_outcomes(spans) == {"aborted": 1, "completed": 1, "open": 1}


# --- recorder --------------------------------------------------------


def test_recorder_prefilters_and_counts_truncation():
    bus = EventBus()
    recorder = TraceRecorder(limit=2, etypes=("vote.receive",)).attach(bus)
    for event in _transaction():
        bus.emit(event)
    assert [e.etype for e in recorder.events] == ["vote.receive"] * 2
    assert recorder.truncated == 0
    bus.emit(ev.VoteReceived(time=99.0, node=2, corr=1, attempt=4, voter=8,
                             address=9, status="free", timestamp=5))
    assert len(recorder) == 2
    assert recorder.truncated == 1
    recorder.detach()


def test_recorder_filter_by_span_and_window():
    bus = EventBus()
    with TraceRecorder().attach(bus) as recorder:
        for event in sorted(_transaction(corr=1, t0=10.0)
                            + _transaction(corr=2, t0=50.0),
                            key=lambda e: e.time):
            bus.emit(event)
    assert {e.corr for e in recorder.filter(corr=2)} == {2}
    windowed = recorder.filter(since=50.0, until=50.2)
    assert windowed and all(50.0 <= e.time <= 50.2 for e in windowed)
