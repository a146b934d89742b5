"""End-to-end tracing acceptance: spans from real runs, determinism,
cache-key neutrality and the JSONL export sink."""

import json

from repro.experiments.scenario import Scenario
from repro.experiments.runner import ScenarioRunner
from repro.experiments.sweep import RunSpec, SweepExecutor, expand_grid
from repro.faults import FaultSpec
from repro.obs import (
    build_spans,
    events_from_jsonl,
    set_trace_export,
    trace_export_path,
)
from repro.obs import events as ev
from repro.quorum.voting import half_of, majority_threshold


def _traced_run(num_nodes=25, seed=3, **overrides):
    scenario = Scenario(num_nodes=num_nodes, seed=seed,
                              settle_time=20.0, trace=True, **overrides)
    runner = ScenarioRunner(scenario)
    result = runner.run()
    assert runner.recorder is not None
    return runner, result


def test_every_successful_allocation_is_a_complete_span():
    runner, result = _traced_run()
    spans = build_spans(runner.recorder.events)
    completed = [s for s in spans if s.outcome == "completed"]
    assert completed, "scenario produced no successful allocations"
    voted = 0
    for span in completed:
        assert span.requester is not None
        assert span.address is not None
        assert span.terminal().etype == "config.complete"
        starts = [e for e in span.events if isinstance(e, ev.VoteStarted)]
        if not starts:
            continue  # "first" spans (network founding) never vote
        voted += 1
        # The quorum condition: a majority of the voting universe — or
        # a distinguished half-set under linear voting (Section II-D) —
        # answered, each verdict carrying status + timestamp.
        start = starts[-1]
        needed = (half_of(start.universe) if start.quorum == "linear"
                  else majority_threshold(start.universe))
        votes = span.vote_events()
        assert len(votes) >= max(1, needed)
        for vote in votes:
            assert vote.status in ("free", "assigned")
            assert vote.timestamp >= 0
        decided = [e for e in span.events if isinstance(e, ev.VoteDecided)]
        assert decided and decided[-1].granted
        assert span.deciding_ts == decided[-1].deciding_ts
        # ...and the decided record was written back to the replicas.
        assert any(isinstance(e, ev.WriteBack) for e in span.events)
    assert voted, "no completed span went through a quorum vote"


def test_failed_attempts_terminate_explicitly_under_faults():
    runner, result = _traced_run(num_nodes=30, seed=5,
                                 faults=FaultSpec(loss_rate=0.25))
    spans = build_spans(runner.recorder.events)
    failed = [s for s in spans if s.outcome in ("aborted", "timeout")]
    assert failed, "lossy run produced no failed attempts"
    for span in failed:
        terminal = span.terminal()
        assert terminal is not None
        assert terminal.etype in ("config.abort", "config.timeout",
                                  "vote.timeout")
    # Only the simulation horizon may leave a span open.
    horizon = runner.recorder.events[-1].time
    for span in spans:
        if span.outcome == "open":
            assert span.ended_at <= horizon


def test_identical_runs_emit_byte_identical_streams():
    first, _ = _traced_run(num_nodes=20, seed=7)
    second, _ = _traced_run(num_nodes=20, seed=7)
    assert first.recorder.to_jsonl() == second.recorder.to_jsonl()


def test_run_result_aggregates_histograms_and_outcomes():
    _, result = _traced_run()
    assert result.obs_spans.get("completed", 0) > 0
    assert "total" in result.obs_histograms
    assert sum(result.obs_histograms["total"]) == sum(
        result.obs_spans.values()) - result.obs_spans.get("open", 0)


def test_tracing_does_not_perturb_the_run():
    scenario_off = Scenario(num_nodes=25, seed=3, settle_time=20.0)
    scenario_on = Scenario(num_nodes=25, seed=3, settle_time=20.0,
                                 trace=True)
    off = ScenarioRunner(scenario_off).run().to_dict()
    on = ScenarioRunner(scenario_on).run().to_dict()
    on.pop("obs_histograms", None)
    on.pop("obs_spans", None)
    assert json.dumps(off, sort_keys=True) == json.dumps(on, sort_keys=True)


def test_serial_and_parallel_traced_sweeps_agree_exactly():
    scenarios = [
        Scenario(num_nodes=n, seed=s, settle_time=15.0, trace=True,
                       faults=FaultSpec(loss_rate=0.1))
        for n in (15, 20) for s in (1, 2)
    ]
    specs = expand_grid(["quorum"], scenarios)
    serial = SweepExecutor(workers=1).run(specs)
    parallel = SweepExecutor(workers=2).run(specs)
    for left, right in zip(serial.results, parallel.results):
        assert json.dumps(left.to_dict(), sort_keys=True) == \
            json.dumps(right.to_dict(), sort_keys=True)
    assert serial.summary().to_json() == parallel.summary().to_json()


def test_cache_keys_unchanged_when_tracing_is_off():
    scenario = Scenario(num_nodes=20, seed=1)
    spec = RunSpec("quorum", scenario)
    assert "trace" not in spec.to_dict()["scenario"]
    # The key matches the hash of the pre-observability spec layout.
    traced = RunSpec("quorum", Scenario(num_nodes=20, seed=1,
                                              trace=True))
    assert traced.to_dict()["scenario"]["trace"] is True
    assert spec.key() != traced.key()


def test_export_sink_collects_jsonl_per_run(tmp_path):
    out = tmp_path / "trace.jsonl"
    try:
        set_trace_export(str(out))
        runner, _ = _traced_run(num_nodes=15, seed=2)
    finally:
        set_trace_export(None)
    assert trace_export_path() is None
    text = out.read_text()
    header = json.loads(text.splitlines()[0])
    assert header["run"]["seed"] == 2
    assert header["run"]["events"] == len(runner.recorder)
    assert events_from_jsonl(text) == runner.recorder.events
