"""The parallel sweep executor: determinism, caching, failure paths."""

import dataclasses
import json
import os

import pytest

from repro.core.config import ProtocolConfig
from repro.experiments import Scenario, figures
from repro.experiments.metrics import DeathRecord, NodeOutcome, RunResult
from repro.experiments.sweep import (
    RunCache,
    RunSpec,
    SweepExecutor,
    SweepSummary,
    derive_seeds,
    execute_spec,
    expand_grid,
)


def tiny(seed=1, **kw):
    kw.setdefault("num_nodes", 12)
    kw.setdefault("settle_time", 5.0)
    kw.setdefault("speed_mps", 0.0)
    return Scenario.paper_default(seed=seed, **kw)


def tiny_specs(protocols=("quorum", "dad"), seeds=(1, 2)):
    return expand_grid(list(protocols), [tiny(seed=s) for s in seeds])


def results(executor, specs):
    return [cell.result for cell in executor.run(specs)]


def cached_flags(executor, specs):
    return [cell.cached for cell in executor.run(specs)]


# ---------------------------------------------------------------------------
# Spec keys
# ---------------------------------------------------------------------------
def test_spec_key_stable():
    assert RunSpec("quorum", tiny()).key() == RunSpec("quorum", tiny()).key()


def test_spec_key_covers_every_input():
    base = RunSpec("quorum", tiny())
    assert base.key() != RunSpec("dad", tiny()).key()
    assert base.key() != RunSpec("quorum", tiny(seed=2)).key()
    assert base.key() != RunSpec("quorum", tiny(num_nodes=13)).key()
    assert base.key() != RunSpec(
        "quorum", tiny(), ProtocolConfig(borrowing_enabled=False)).key()


# ---------------------------------------------------------------------------
# RunResult serialization round-trip (the cache's correctness anchor)
# ---------------------------------------------------------------------------
def test_runresult_json_roundtrip_is_lossless():
    result, _seconds = execute_spec(RunSpec(
        "quorum", tiny(num_nodes=20, depart_fraction=0.3,
                       abrupt_probability=0.5, speed_mps=20.0,
                       settle_time=20.0)))
    assert result.deaths or result.graceful_departures  # exercise both lists
    restored = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result


def test_runresult_roundtrip_covers_every_field():
    """A fully-populated result — every optional observability field
    included — survives the JSON round-trip, and an unpopulated result
    ships none of the optional fields (the cache-format back-compat
    guarantee)."""
    full = RunResult(
        protocol="quorum",
        num_nodes=2,
        duration=30.0,
        outcomes=[NodeOutcome(node_id=1, configured=True, failed=False,
                              latency_hops=2, latency_time=1.5, attempts=1,
                              is_head=True, ip=7, network_id=1, alive=True,
                              reconfigurations=0)],
        stats_hops={"config": 4},
        stats_msgs={"config": 2},
        deaths=[DeathRecord(node_id=2, time=9.0, was_head=False,
                            qdset_members=(1,), ever_reported=True,
                            allocations_since_report=1,
                            allocations_total=3, root_id=1)],
        graceful_departures=1,
        abrupt_departures=1,
        graceful_ids=frozenset({3}),
        qdset_sizes=[2, 3],
        ip_space_total=64,
        quorum_space_total=16,
        head_count=1,
        duplicate_addresses=0,
        stats_drops={"config": 1},
        events={"quorum_shrink": 2},
        perf_counters={"graph_rebuilds": 5},
        obs_histograms={"config_attempt": [0, 1, 0]},
        obs_spans={"config_attempt:ok": 1},
        obs_metrics={"agents_live": [0, 1, 2]},
    )
    payload = full.to_dict()
    # Every dataclass field is present when populated...
    assert set(payload) == {f.name for f in dataclasses.fields(RunResult)}
    assert RunResult.from_dict(json.loads(json.dumps(payload))) == full

    # ...and every empty optional is dropped from the payload.
    bare = RunResult(protocol="dad", num_nodes=0, duration=0.0, outcomes=[],
                     stats_hops={}, stats_msgs={}, deaths=[],
                     graceful_departures=0, abrupt_departures=0)
    trimmed = bare.to_dict()
    for optional in ("stats_drops", "events", "perf_counters",
                     "obs_histograms", "obs_spans", "obs_metrics"):
        assert optional not in trimmed
    assert RunResult.from_dict(json.loads(json.dumps(trimmed))) == bare


# ---------------------------------------------------------------------------
# Determinism: serial == parallel, cell for cell
# ---------------------------------------------------------------------------
def test_parallel_sweep_identical_to_serial():
    specs = tiny_specs()
    serial = list(SweepExecutor(workers=1).run(specs))
    parallel = list(SweepExecutor(workers=2).run(specs))
    assert [c.result for c in serial] == [c.result for c in parallel]
    assert SweepSummary(parallel).executed == len(specs)


def test_conn_label_counters_deterministic_serial_vs_parallel():
    """The connectivity-label layer's counters are part of the recorded
    run surface: a churny quorum run must exercise the label path and
    produce bit-identical counters from serial and parallel sweeps."""
    specs = [RunSpec("quorum", tiny(seed=s, num_nodes=24, speed_mps=10.0,
                                    depart_fraction=0.4,
                                    abrupt_probability=0.5,
                                    settle_time=20.0))
             for s in (1, 2)]
    serial = results(SweepExecutor(workers=1), specs)
    parallel = results(SweepExecutor(workers=2), specs)
    for left, right in zip(serial, parallel):
        assert left.perf_counters == right.perf_counters
        assert left.perf_counters.get("conn_relabels", 0) > 0
        assert left.perf_counters.get("conn_label_hits", 0) > 0


def test_figure_identical_serial_vs_parallel():
    for figure, kwargs in (
            (figures.fig05_latency_vs_size,
             dict(sizes=(12, 16), seeds=(1, 2), transmission_range=150.0)),
            # One seed per point: only a sweep that spans the whole
            # figure has a second cell to hand the second worker.
            (figures.fig07_latency_grid,
             dict(ranges=(150.0, 200.0), sizes=(12, 16), seeds=(1,)))):
        serial = figure(executor=SweepExecutor(workers=1), **kwargs)
        parallel = figure(executor=SweepExecutor(workers=2), **kwargs)
        # Byte-identical metric output (curve order included), not
        # merely approximately equal.
        assert json.dumps(serial) == json.dumps(parallel)


def test_derived_seeds_stable_and_distinct():
    assert derive_seeds(0, 3) == derive_seeds(0, 3)
    assert len(set(derive_seeds(0, 8))) == 8
    assert derive_seeds(0, 3) != derive_seeds(1, 3)
    assert derive_seeds(0, 3, "a") != derive_seeds(0, 3, "b")


def test_results_keep_spec_order():
    specs = tiny_specs(protocols=("dad", "quorum", "buddy"), seeds=(1,))
    assert [r.protocol for r in results(SweepExecutor(workers=3), specs)] \
        == [s.protocol for s in specs]


def test_workers_zero_means_every_core_and_negative_is_refused():
    assert SweepExecutor(workers=0).workers == (os.cpu_count() or 1)
    with pytest.raises(ValueError, match="workers"):
        SweepExecutor(workers=-1)


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------
def test_cache_hit_returns_without_executing(tmp_path, monkeypatch):
    specs = tiny_specs(protocols=("quorum",), seeds=(1, 2))
    first = list(SweepExecutor(workers=1, cache_dir=tmp_path).run(specs))
    assert SweepSummary(first).executed == 2

    # Re-running must not execute at all: poison the execution path.
    import repro.experiments.sweep as sweep_mod
    def boom(spec, trace_out=None, metrics_out=None):
        raise AssertionError("cache hit must not execute the simulation")
    monkeypatch.setattr(sweep_mod, "execute_spec", boom)

    cells = list(SweepExecutor(workers=1, cache_dir=tmp_path).run(specs))
    assert [c.result for c in cells] == [c.result for c in first]
    assert [c.cached for c in cells] == [True, True]
    second = SweepSummary(cells)
    assert second.cache_hit_rate() == 1.0
    assert (second.cached, second.executed) == (2, 0)


def test_cached_results_equal_fresh_ones(tmp_path):
    specs = tiny_specs()
    fresh = results(SweepExecutor(workers=2, cache_dir=tmp_path / "a"), specs)
    list(SweepExecutor(workers=2, cache_dir=tmp_path / "b").run(specs))
    cells = list(SweepExecutor(workers=1, cache_dir=tmp_path / "b").run(specs))
    assert [c.result for c in cells] == fresh
    assert all(c.cached for c in cells)


def test_corrupted_cache_entry_falls_back_to_rerun(tmp_path):
    specs = tiny_specs(protocols=("quorum",), seeds=(1,))
    first = results(SweepExecutor(workers=1, cache_dir=tmp_path), specs)

    cache = RunCache(tmp_path)
    cache.path_for(specs[0]).write_text("{ not json")
    rerun = list(SweepExecutor(workers=1, cache_dir=tmp_path).run(specs))
    assert [c.cached for c in rerun] == [False]
    assert [c.result for c in rerun] == first
    # ...and the re-run healed the entry.
    assert cached_flags(
        SweepExecutor(workers=1, cache_dir=tmp_path), specs) == [True]


def test_version_mismatch_treated_as_miss(tmp_path):
    specs = tiny_specs(protocols=("dad",), seeds=(1,))
    list(SweepExecutor(workers=1, cache_dir=tmp_path).run(specs))
    cache = RunCache(tmp_path)
    path = cache.path_for(specs[0])
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    assert cache.get(specs[0]) is None


def test_put_writes_through_a_temp_file_of_its_own(tmp_path):
    """Two processes filling one cache directory each write their own
    temp file: another writer's ``<key>.tmp`` is never touched."""
    spec = RunSpec("dad", tiny())
    result, _seconds = execute_spec(spec)
    cache = RunCache(tmp_path)
    foreign = cache.path_for(spec).with_suffix(".tmp")
    foreign.write_bytes(b"another writer's half-written entry")
    cache.put(spec, result)
    assert foreign.read_bytes() == b"another writer's half-written entry"
    assert cache.get(spec) == result
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [foreign.name, cache.path_for(spec).name])


@pytest.mark.parametrize("sink", ["trace", "metrics"])
def test_export_sink_runs_every_cell_here_and_stores_it(
        tmp_path, monkeypatch, sink):
    """With a sink every cell runs in-process and in spec order, none is
    read from the cache (a hit would export nothing) and every result is
    still stored, so the file holds the serial run's bytes."""
    import repro.experiments.sweep as sweep_mod

    specs = expand_grid(["quorum", "dad"],
                        [tiny(seed=s, **{sink: True}) for s in (1, 2)])
    serial = tmp_path / "serial.jsonl"
    list(SweepExecutor(workers=1, **{f"{sink}_out": str(serial)}).run(specs))
    assert serial.read_bytes()

    def no_pool(*args, **kwargs):
        raise AssertionError("an exporting sweep started a worker pool")
    monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", no_pool)
    cache = tmp_path / "cache"
    out = tmp_path / "pooled.jsonl"
    for _ in range(2):  # the second pass meets a warm cache
        out.write_bytes(b"")
        executor = SweepExecutor(workers=2, cache_dir=cache,
                                 **{f"{sink}_out": str(out)})
        assert cached_flags(executor, specs) == [False] * len(specs)
        assert executor.workers == 1
        assert len(RunCache(cache)) == len(specs)
        assert out.read_bytes() == serial.read_bytes()


# ---------------------------------------------------------------------------
# Failures
# ---------------------------------------------------------------------------
def test_failing_run_raises_and_counts():
    """A failing cell raises out of ``run``; the cells before it were
    yielded and counted."""
    summary = SweepSummary()
    with pytest.raises(ValueError):
        for cell in SweepExecutor(workers=1).run(
                [RunSpec("dad", tiny()), RunSpec("carrier-pigeon", tiny())]):
            summary.fold(cell)
    assert (summary.cells, summary.executed) == (1, 1)


def test_failing_run_raises_in_parallel_mode():
    with pytest.raises(ValueError):
        list(SweepExecutor(workers=2).run([RunSpec("carrier-pigeon", tiny()),
                                           RunSpec("quorum", tiny())]))


# ---------------------------------------------------------------------------
# Cells in spec order and the one fold
# ---------------------------------------------------------------------------
def test_stream_yields_cells_in_spec_order_parallel():
    specs = tiny_specs()
    cells = list(SweepExecutor(workers=2).run(specs))
    assert [c.spec for c in cells] == specs
    assert [c.result for c in cells] == results(
        SweepExecutor(workers=1), specs)


def _content(summary):
    """The summary's run-content totals: everything but the tally of
    executed and cached cells."""
    payload = summary.to_dict()
    for field in ("executed", "cached", "cache_hit_rate"):
        payload.pop(field)
    return json.dumps(payload, sort_keys=True)


def test_summary_byte_identical_serial_vs_parallel():
    specs = tiny_specs()
    serial = SweepSummary(SweepExecutor(workers=1).run(specs))
    parallel = SweepSummary(SweepExecutor(workers=2).run(specs))
    assert serial.to_json() == parallel.to_json()
    assert serial.perf_totals()


def test_streamed_summary_with_cache_hits_byte_identical(tmp_path):
    """A warm cache changes the tally of executed and cached cells and
    nothing else the summary serializes."""
    specs = tiny_specs(protocols=("quorum",), seeds=(1, 2))
    fresh = SweepSummary(
        SweepExecutor(workers=2, cache_dir=tmp_path).run(specs))
    warm = SweepSummary(
        SweepExecutor(workers=1, cache_dir=tmp_path).run(specs))
    assert (fresh.executed, fresh.cached) == (len(specs), 0)
    assert (warm.executed, warm.cached) == (0, len(specs))
    assert _content(warm) == _content(fresh)


def test_abandoned_stream_shuts_down_cleanly():
    specs = tiny_specs()
    cells = SweepExecutor(workers=2).run(specs)
    first = next(cells)
    assert first.spec == specs[0]
    cells.close()  # must cancel the rest without hanging or raising


def test_stream_byte_identity_at_1000_cells(monkeypatch, tmp_path):
    """The fold at the scale it exists for: 1000 cells through the real
    executor, fresh and then from a warm cache.  The simulation body is
    stubbed to a cheap deterministic result — a full 1000-cell protocol
    grid is minutes of compute, and the machinery under test (ordering,
    caching, folding, serialization) is identical either way."""
    import repro.experiments.sweep as sweep_mod

    def fake(spec, trace_out=None, metrics_out=None):
        seed = spec.scenario.seed
        return RunResult(
            protocol=spec.protocol, num_nodes=spec.scenario.num_nodes,
            duration=1.0, outcomes=[], stats_hops={"CONFIG": seed},
            stats_msgs={}, deaths=[], graceful_departures=0,
            abrupt_departures=0,
            perf_counters={"bfs_calls": seed, "graph_rebuilds": seed % 7},
            obs_spans={"completed": 1 + seed % 3},
        ), 0.0

    monkeypatch.setattr(sweep_mod, "execute_spec", fake)
    scenarios = [tiny(seed=s) for s in range(1, 501)]
    specs = expand_grid(["quorum", "dad"], scenarios)
    assert len(specs) == 1000
    fresh = SweepSummary(
        SweepExecutor(workers=1, cache_dir=tmp_path).run(specs))
    warm = SweepSummary(
        SweepExecutor(workers=1, cache_dir=tmp_path).run(specs))
    assert (fresh.cells, fresh.executed, warm.cached) == (1000, 1000, 1000)
    assert _content(warm) == _content(fresh)
    assert fresh.perf_totals()["bfs_calls"] == 2 * sum(range(1, 501))
    assert fresh.obs_span_totals()["completed"] == 2 * sum(
        1 + s % 3 for s in range(1, 501))


def test_expand_grid_order_and_configs():
    scenarios = [tiny(seed=1), tiny(seed=2)]
    cfg = ProtocolConfig(merge_detection_enabled=False)
    specs = expand_grid(["quorum", "dad"], scenarios, configs={"quorum": cfg})
    assert [(s.protocol, s.scenario.seed) for s in specs] == [
        ("quorum", 1), ("quorum", 2), ("dad", 1), ("dad", 2)]
    assert specs[0].protocol_config is cfg
    assert specs[2].protocol_config is None
