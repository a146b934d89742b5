"""End-to-end metrics acceptance: real-run series, determinism,
cache-key neutrality and the JSONL export sink."""

import json

from repro.experiments.scenario import Scenario
from repro.experiments.runner import ScenarioRunner
from repro.faults import FaultSpec
from repro.experiments.sweep import (
    RunSpec,
    SweepExecutor,
    SweepSummary,
    expand_grid,
)
from repro.obs import (
    merge_series,
    metrics_export_path,
    series_from_jsonl,
    set_metrics_export,
)
from repro.obs import metric_names as mn


def _metrics_run(num_nodes=25, seed=3, period=1.0, **overrides):
    overrides.setdefault("settle_time", 20.0)
    scenario = Scenario(num_nodes=num_nodes, seed=seed, metrics=True,
                              metrics_period=period, **overrides)
    return ScenarioRunner(scenario).run()


def test_series_cover_the_whole_run_and_show_the_ramp():
    result = _metrics_run()
    series = result.obs_metrics
    samples = len(series[mn.AGENTS_LIVE])
    # One sample per period from t=0 through the end of the run.
    assert samples >= int(result.duration)
    assert all(len(values) == samples for values in series.values())
    # Nodes arrive one per second: the live count ramps monotonically
    # up to the full population.
    live = series[mn.AGENTS_LIVE]
    assert live[0] == 0
    assert live[-1] == 25
    assert all(b >= a for a, b in zip(live, live[1:]))
    assert series[mn.AGENTS_CONFIGURED][-1] > 0
    assert max(series[mn.POOL_FREE]) > 0
    assert series[mn.COMPONENT_COUNT][-1] >= 0
    # Message-rate series are per-interval deltas of the cumulative
    # counters: their sums reach the run totals up to the handful of
    # messages delivered after the final sample tick.
    for category, total in result.stats_msgs.items():
        captured = sum(series[mn.msg_metric(category)])
        assert 0 <= captured <= total
        assert total - captured <= 5


def test_role_and_quorum_gauges_read_the_agents():
    # Static and settled: the last sample sees the end-of-run state.
    result = _metrics_run(num_nodes=40, seed=2, speed_mps=0.0, period=0.25,
                          faults=FaultSpec(loss_rate=0.1))
    series = result.obs_metrics
    assert series[mn.role_metric("head")][-1] == result.head_count
    assert series[mn.QDSET_SIZE_TOTAL][-1] == sum(result.qdset_sizes) > 0
    # Every registered agent is counted under exactly one role at every
    # tick — including the ticks a role (requesting, here) has emptied.
    roles = [values for name, values in series.items()
             if name.startswith(mn.ROLE_PREFIX)]
    assert [sum(tick) for tick in zip(*roles)] == series[mn.AGENTS_LIVE]
    requesting = series[mn.role_metric("requesting")]
    first = next(i for i, count in enumerate(requesting) if count)
    assert 0 in requesting[first:requesting.index(max(requesting))]
    # Lost votes keep allocator-side vote timers alive across a tick.
    assert max(series[mn.VOTE_TIMERS]) > 0
    assert series[mn.VOTE_TIMERS][-1] == 0
    # Agents without a role (every baseline) count under role_none.
    scenario = Scenario(num_nodes=10, seed=1, settle_time=5.0, metrics=True)
    baseline = ScenarioRunner(scenario, "dad").run().obs_metrics
    assert baseline[mn.role_metric(None)] == baseline[mn.AGENTS_LIVE]
    assert max(baseline[mn.QDSET_SIZE_TOTAL]) == 0


def test_metrics_do_not_perturb_the_run():
    scenario_off = Scenario(num_nodes=25, seed=3, settle_time=20.0)
    scenario_on = Scenario(num_nodes=25, seed=3, settle_time=20.0,
                                 metrics=True)
    off = ScenarioRunner(scenario_off).run().to_dict()
    on = ScenarioRunner(scenario_on).run().to_dict()
    assert on.pop("obs_metrics", None)
    assert json.dumps(off, sort_keys=True) == json.dumps(on, sort_keys=True)


def test_identical_runs_produce_byte_identical_series():
    first = _metrics_run(num_nodes=20, seed=7)
    second = _metrics_run(num_nodes=20, seed=7)
    assert json.dumps(first.obs_metrics, sort_keys=True) == \
        json.dumps(second.obs_metrics, sort_keys=True)


def test_serial_and_parallel_metrics_sweeps_agree_exactly():
    scenarios = [
        Scenario(num_nodes=n, seed=s, settle_time=15.0, metrics=True)
        for n in (15, 20) for s in (1, 2)
    ]
    specs = expand_grid(["quorum"], scenarios)
    serial = SweepExecutor(workers=1).run(specs)
    parallel = SweepExecutor(workers=2).run(specs)
    for left, right in zip(serial.results, parallel.results):
        assert json.dumps(left.to_dict(), sort_keys=True) == \
            json.dumps(right.to_dict(), sort_keys=True)
        assert left.obs_metrics
    assert serial.summary().to_json() == parallel.summary().to_json()


def test_sweep_summary_folds_metrics_like_the_report():
    scenarios = [Scenario(num_nodes=12, seed=s, settle_time=5.0,
                                metrics=True) for s in (1, 2)]
    specs = expand_grid(["quorum"], scenarios)
    executor = SweepExecutor(workers=1)
    report = executor.run(specs)
    summary = SweepSummary()
    for cell in executor.stream(specs):
        summary.fold(cell)
    expected = {}
    for result in report.results:
        expected = merge_series(expected, result.obs_metrics)
    assert summary.obs_metric_totals() == expected
    assert report.summary().obs_metric_totals() == expected
    assert summary.to_dict()["obs_metric_totals"] == expected


def test_cache_keys_unchanged_when_metrics_are_off():
    scenario = Scenario(num_nodes=20, seed=1)
    spec = RunSpec("quorum", scenario)
    payload = spec.to_dict()["scenario"]
    assert "metrics" not in payload
    assert "metrics_period" not in payload
    sampled = RunSpec("quorum", Scenario(num_nodes=20, seed=1,
                                               metrics=True))
    assert sampled.to_dict()["scenario"]["metrics"] is True
    assert spec.key() != sampled.key()
    # Different cadences cache separately too (the series differ).
    coarse = RunSpec("quorum", Scenario(num_nodes=20, seed=1,
                                              metrics=True,
                                              metrics_period=5.0))
    assert sampled.key() != coarse.key()


def test_export_sink_collects_jsonl_per_run(tmp_path):
    out = tmp_path / "metrics.jsonl"
    try:
        set_metrics_export(str(out))
        result = _metrics_run(num_nodes=15, seed=2, settle_time=10.0)
    finally:
        set_metrics_export(None)
    assert metrics_export_path() is None
    blocks = series_from_jsonl(out.read_text())
    assert len(blocks) == 1
    header, series = blocks[0]
    assert header["seed"] == 2
    assert header["protocol"] == "quorum"
    assert series == result.obs_metrics
