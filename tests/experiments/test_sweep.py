"""The parallel sweep executor: determinism, caching, failure paths."""

import dataclasses
import json

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
    result = execute_spec(RunSpec(
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
    serial = SweepExecutor(workers=1).run(specs)
    parallel = SweepExecutor(workers=2).run(specs)
    assert serial.results == parallel.results
    assert parallel.stats.get("executed") == len(specs)


def test_conn_label_counters_deterministic_serial_vs_parallel():
    """The connectivity-label layer's counters are part of the recorded
    run surface: a churny quorum run must exercise the label path and
    produce bit-identical counters from serial and parallel sweeps."""
    specs = [RunSpec("quorum", tiny(seed=s, num_nodes=24, speed_mps=10.0,
                                    depart_fraction=0.4,
                                    abrupt_probability=0.5,
                                    settle_time=20.0))
             for s in (1, 2)]
    serial = SweepExecutor(workers=1).run(specs)
    parallel = SweepExecutor(workers=2).run(specs)
    for left, right in zip(serial.results, parallel.results):
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
    report = SweepExecutor(workers=3).run(specs)
    assert [r.protocol for r in report.results] == [
        s.protocol for s in specs]


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------
def test_cache_hit_returns_without_executing(tmp_path, monkeypatch):
    specs = tiny_specs(protocols=("quorum",), seeds=(1, 2))
    first = SweepExecutor(workers=1, cache_dir=tmp_path).run(specs)
    assert first.stats.get("executed") == 2

    # Re-running must not execute at all: poison the execution path.
    import repro.experiments.sweep as sweep_mod
    def boom(spec, trace_out=None, metrics_out=None):
        raise AssertionError("cache hit must not execute the simulation")
    monkeypatch.setattr(sweep_mod, "execute_spec", boom)

    again = SweepExecutor(workers=1, cache_dir=tmp_path)
    second = again.run(specs)
    assert second.results == first.results
    assert second.cached == [True, True]
    assert second.cache_hit_rate() == 1.0
    assert again.stats.get("cache_hit") == 2
    assert again.stats.get("executed") == 0


def test_cached_results_equal_fresh_ones(tmp_path):
    specs = tiny_specs()
    fresh = SweepExecutor(workers=2, cache_dir=tmp_path / "a").run(specs)
    SweepExecutor(workers=2, cache_dir=tmp_path / "b").run(specs)
    cached = SweepExecutor(workers=1, cache_dir=tmp_path / "b").run(specs)
    assert cached.results == fresh.results
    assert all(cached.cached)


def test_corrupted_cache_entry_falls_back_to_rerun(tmp_path):
    specs = tiny_specs(protocols=("quorum",), seeds=(1,))
    executor = SweepExecutor(workers=1, cache_dir=tmp_path)
    first = executor.run(specs)

    cache = RunCache(tmp_path)
    cache.path_for(specs[0]).write_text("{ not json")
    rerun = SweepExecutor(workers=1, cache_dir=tmp_path).run(specs)
    assert rerun.cached == [False]
    assert rerun.results == first.results
    # ...and the re-run healed the entry.
    healed = SweepExecutor(workers=1, cache_dir=tmp_path).run(specs)
    assert healed.cached == [True]


def test_version_mismatch_treated_as_miss(tmp_path):
    specs = tiny_specs(protocols=("dad",), seeds=(1,))
    SweepExecutor(workers=1, cache_dir=tmp_path).run(specs)
    cache = RunCache(tmp_path)
    path = cache.path_for(specs[0])
    payload = json.loads(path.read_text())
    payload["version"] = 999
    path.write_text(json.dumps(payload))
    assert cache.get(specs[0]) is None


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
    SweepExecutor(workers=1, **{f"{sink}_out": str(serial)}).run(specs)
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
        report = executor.run(specs)
        assert executor.workers == 1
        assert report.cached == [False] * len(specs)
        assert executor.stats.get("cache_hit") == 0
        assert len(RunCache(cache)) == len(specs)
        assert out.read_bytes() == serial.read_bytes()


# ---------------------------------------------------------------------------
# Failures and plumbing
# ---------------------------------------------------------------------------
def test_failing_run_raises_and_counts():
    bad = RunSpec("carrier-pigeon", tiny())
    executor = SweepExecutor(workers=1)
    with pytest.raises(ValueError):
        executor.run([bad])
    assert executor.stats.get("failed") == 1


def test_failing_run_raises_in_parallel_mode():
    executor = SweepExecutor(workers=2)
    with pytest.raises(ValueError):
        executor.run([RunSpec("carrier-pigeon", tiny()),
                      RunSpec("quorum", tiny())])
    assert executor.stats.get("failed") == 1


def test_progress_callback_sees_every_cell(tmp_path):
    seen = []
    specs = tiny_specs(protocols=("quorum",), seeds=(1, 2))
    SweepExecutor(workers=1, cache_dir=tmp_path,
                  progress=lambda d, t, s: seen.append((d, t))).run(specs)
    assert seen == [(1, 2), (2, 2)]


# ---------------------------------------------------------------------------
# Streaming: spec-order cells, incremental folds, byte-identity
# ---------------------------------------------------------------------------
def test_stream_yields_cells_in_spec_order_parallel():
    specs = tiny_specs()
    cells = list(SweepExecutor(workers=2).stream(specs))
    assert [c.index for c in cells] == list(range(len(specs)))
    assert [c.spec for c in cells] == specs
    assert [c.result for c in cells] == SweepExecutor(
        workers=1).run(specs).results


def test_streamed_summary_byte_identical_to_materialized():
    specs = tiny_specs()
    streamed = SweepSummary()
    for cell in SweepExecutor(workers=1).stream(specs):
        streamed.fold(cell)
    materialized = SweepExecutor(workers=2).run(specs).summary()
    assert streamed.to_json() == materialized.to_json()


def test_streamed_summary_with_cache_hits_byte_identical(tmp_path):
    specs = tiny_specs(protocols=("quorum",), seeds=(1, 2))
    SweepExecutor(workers=1, cache_dir=tmp_path).run(specs)  # prime
    streamed = SweepSummary()
    for cell in SweepExecutor(workers=1, cache_dir=tmp_path).stream(specs):
        streamed.fold(cell)
    assert streamed.cached == len(specs)
    materialized = SweepExecutor(
        workers=1, cache_dir=tmp_path).run(specs).summary()
    assert streamed.to_json() == materialized.to_json()


def test_abandoned_stream_shuts_down_cleanly():
    specs = tiny_specs()
    stream = SweepExecutor(workers=2).stream(specs)
    first = next(stream)
    assert first.index == 0
    stream.close()  # must cancel the rest without hanging or raising


def test_stream_byte_identity_at_1000_cells(monkeypatch):
    """The streaming contract at the scale it exists for: 1000 cells
    through the real executor and fold machinery.  The simulation body
    is stubbed to a cheap deterministic result — a full 1000-cell
    protocol grid is minutes of compute, and the machinery under test
    (ordering, folding, serialization) is identical either way."""
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
        )

    monkeypatch.setattr(sweep_mod, "execute_spec", fake)
    scenarios = [tiny(seed=s) for s in range(1, 501)]
    specs = expand_grid(["quorum", "dad"], scenarios)
    assert len(specs) == 1000
    streamed = SweepSummary()
    for cell in SweepExecutor(workers=1).stream(specs):
        streamed.fold(cell)
    materialized = SweepExecutor(workers=1).run(specs).summary()
    assert streamed.cells == 1000
    assert streamed.to_json() == materialized.to_json()
    assert streamed.perf_totals()["bfs_calls"] == 2 * sum(range(1, 501))


def test_expand_grid_order_and_configs():
    scenarios = [tiny(seed=1), tiny(seed=2)]
    cfg = ProtocolConfig(merge_detection_enabled=False)
    specs = expand_grid(["quorum", "dad"], scenarios, configs={"quorum": cfg})
    assert [(s.protocol, s.scenario.seed) for s in specs] == [
        ("quorum", 1), ("quorum", 2), ("dad", 1), ("dad", 2)]
    assert specs[0].protocol_config is cfg
    assert specs[2].protocol_config is None
