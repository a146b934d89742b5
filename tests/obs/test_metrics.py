"""Unit tests for the run-level metrics recorder and its serializers."""

import pytest

from repro.net.context import NetworkContext
from repro.obs import metric_names as mn
from repro.obs.metrics import (
    MetricsRecorder,
    merge_series,
    series_from_jsonl,
    series_to_csv,
    series_to_jsonl,
)


def test_period_must_be_positive():
    with pytest.raises(ValueError):
        MetricsRecorder(period=0.0)
    with pytest.raises(ValueError):
        MetricsRecorder(period=-1.0)


def test_attach_samples_on_the_sim_cadence():
    ctx = NetworkContext.build(seed=1)
    recorder = MetricsRecorder(period=2.0).attach(ctx)
    ctx.sim.run(until=4.0)
    # Samples at t = 0, 2, 4.
    assert recorder.samples == 3
    assert len(recorder) == 3
    series = recorder.series()
    assert series[mn.AGENTS_LIVE] == [0, 0, 0]
    assert all(len(values) == 3 for values in series.values())


def test_attach_twice_raises():
    ctx = NetworkContext.build(seed=1)
    recorder = MetricsRecorder().attach(ctx)
    with pytest.raises(RuntimeError):
        recorder.attach(ctx)


def test_detach_stops_sampling_but_keeps_series():
    ctx = NetworkContext.build(seed=1)
    recorder = MetricsRecorder(period=1.0).attach(ctx)
    ctx.sim.run(until=2.0)
    taken = recorder.samples
    recorder.detach()
    ctx.sim.run(until=6.0)
    assert recorder.samples == taken
    assert recorder.series()[mn.HEAP_SIZE][0] >= 0


def test_late_series_are_zero_padded_to_t0():
    recorder = MetricsRecorder()
    recorder._samples = 1
    recorder.record("early", 5)
    recorder._samples = 2
    recorder.record("early", 6)
    recorder.record("late", 7)  # first seen on tick 2
    series = recorder.series()
    assert series["early"] == [5, 6]
    assert series["late"] == [0, 7]


def test_a_tick_without_a_record_reads_zero_and_shifts_nothing():
    # sample_gauges records role_<r> only on ticks where the role has a
    # member; the tick it empties for must read 0, not be skipped.
    recorder = MetricsRecorder()
    for tick, members in enumerate([3, None, 2, None, None], start=1):
        recorder._samples = tick
        recorder.record("agents_live", 4)
        if members is not None:
            recorder.record("role_requesting", members)
    series = recorder.series()
    assert series["role_requesting"] == [3, 0, 2, 0, 0]
    assert series["agents_live"] == [4, 4, 4, 4, 4]


def test_series_output_is_name_sorted_and_copied():
    recorder = MetricsRecorder()
    recorder._samples = 1
    recorder.record("zz", 1)
    recorder.record("aa", 2)
    series = recorder.series()
    assert list(series) == ["aa", "zz"]
    series["aa"].append(99)
    assert recorder.series()["aa"] == [2]


def test_merge_series_sums_elementwise_and_extends_ragged_tails():
    base = {"a": [1, 2], "b": [3]}
    extra = {"a": [10], "b": [0, 5, 7], "c": [1]}
    merged = merge_series(base, extra)
    assert merged == {"a": [11, 2], "b": [3, 5, 7], "c": [1]}
    # Inputs are not mutated.
    assert base == {"a": [1, 2], "b": [3]}
    assert extra == {"a": [10], "b": [0, 5, 7], "c": [1]}


def test_merge_series_is_associative_over_a_fixed_order():
    runs = [{"x": [1, 2]}, {"x": [3], "y": [4]}, {"y": [5, 6, 7]}]
    left = merge_series(merge_series(runs[0], runs[1]), runs[2])
    right = merge_series(runs[0], merge_series(runs[1], runs[2]))
    assert left == right


def test_jsonl_round_trip_preserves_header_and_series():
    series = {"b": [1, 2, 3], "a": [0, 1, 0]}
    text = series_to_jsonl(series, 0.5, meta={"seed": 7})
    blocks = series_from_jsonl(text)
    assert len(blocks) == 1
    header, restored = blocks[0]
    assert header["period"] == 0.5
    assert header["samples"] == 3
    assert header["seed"] == 7
    assert restored == series


def test_jsonl_concatenated_blocks_parse_as_separate_runs():
    text = (series_to_jsonl({"a": [1]}, 1.0, meta={"seed": 1})
            + series_to_jsonl({"a": [2]}, 1.0, meta={"seed": 2}))
    blocks = series_from_jsonl(text)
    assert [h["seed"] for h, _ in blocks] == [1, 2]
    assert [s["a"] for _, s in blocks] == [[1], [2]]


def test_jsonl_metric_line_before_header_is_an_error():
    with pytest.raises(ValueError):
        series_from_jsonl('{"name":"a","values":[1]}\n')


def test_csv_is_wide_with_a_time_column():
    text = series_to_csv({"b": [1, 2], "a": [3]}, 0.5)
    lines = text.strip().splitlines()
    assert lines[0] == "time,a,b"
    assert lines[1] == "0,3,1"
    # Short series read as zero past their end.
    assert lines[2] == "0.5,0,2"


def test_registry_helpers_build_family_names():
    assert mn.role_metric("head") == "role_head"
    assert mn.role_metric(None) == "role_none"
    assert mn.msg_metric("config") == "msgs_config"
    assert mn.drop_metric("hello") == "drops_hello"
    assert mn.AGENTS_LIVE in mn.ALL_METRICS
