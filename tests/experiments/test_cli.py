"""CLI smoke and behavior tests."""

import os

import pytest

from repro.cli import _figure_executor, build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_defaults():
    args = build_parser().parse_args(["run"])
    assert args.protocol == "quorum"
    assert args.nodes == 100


def test_run_command_prints_report(capsys):
    code = main(["run", "--nodes", "20", "--seed", "1", "--settle", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "configured" in out
    assert "unique addresses" in out


def test_run_with_baseline_protocol(capsys):
    code = main(["run", "--protocol", "ctree", "--nodes", "15",
                 "--settle", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ctree" in out


def test_compare_lists_all_protocols(capsys):
    code = main(["compare", "--nodes", "15", "--settle", "10"])
    out = capsys.readouterr().out
    assert code == 0
    for protocol in ("quorum", "manetconf", "buddy", "ctree", "dad",
                     "weakdad"):
        assert protocol in out


def test_figure_table1(capsys):
    code = main(["figure", "table1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CH_REQ" in out and "QUORUM_CLT" in out


def test_layout_draws_map(capsys):
    code = main(["layout", "--nodes", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "H" in out and "cluster head" in out


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_invalid_protocol_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--protocol", "pigeon"])


def test_sweep_runs_grid_and_reports_stats(capsys, tmp_path):
    argv = ["sweep", "--protocols", "quorum", "dad", "--nodes", "12",
            "--seeds", "1", "--speed", "0", "--settle", "5",
            "--workers", "1", "--cache", str(tmp_path)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "quorum" in out and "dad" in out
    assert "executed=2" in out and "cache_hits=0" in out

    code = main(argv)  # second invocation: everything cached
    out = capsys.readouterr().out
    assert code == 0
    assert "executed=0" in out and "cache_hits=2" in out
    assert "(100 % cached)" in out


def test_workers_zero_means_every_core(capsys):
    # One cell never starts a process pool, whatever the count.
    assert main(["sweep", "--nodes", "10", "--seeds", "1", "--speed", "0",
                 "--settle", "5", "--workers", "0"]) == 0
    assert f"workers={os.cpu_count()}" in capsys.readouterr().out
    args = build_parser().parse_args(["figure", "fig05", "--workers", "0"])
    assert _figure_executor(args).workers == os.cpu_count()


def test_run_with_faults_reports_fault_activity(capsys):
    code = main(["run", "--nodes", "15", "--settle", "10",
                 "--faults", "loss=0.3,crash=3@10-30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "event: fault_crashes" in out


RUN = ["run", "--settle", "5"]


@pytest.mark.parametrize("argv, named", [
    pytest.param(RUN + ["--nodes", "0"], "num_nodes", id="nodes"),
    pytest.param(RUN + ["--depart", "1.5"], "depart_fraction", id="depart"),
    pytest.param(RUN + ["--faults", "loss=2"], "loss_rate",
                 id="faults-value"),
    pytest.param(RUN + ["--faults", "chaos=1"],
                 "unknown fault spec key 'chaos'", id="faults-key"),
    pytest.param(RUN + ["--tr", "-1"], "transmission_range", id="tr"),
    pytest.param(RUN + ["--metrics-period", "0"], "metrics_period",
                 id="metrics-period"),
    pytest.param(["figure", "fig05", "--workers", "-1"], "--workers",
                 id="figure-workers"),
    pytest.param(["sweep", "--nodes", "10", "--workers", "-1"], "--workers",
                 id="sweep-workers"),
])
def test_rejected_input_is_a_usage_error_naming_the_field(
        argv, named, capsys):
    # What Scenario, FaultSpec.parse or the --workers reader refuses
    # ends like an argparse error — one line on stderr, status 2 — not
    # in a traceback.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro: error: ") and named in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["figure", "fig05", "--metrics-period", "0"],
    ["figure", "fig04", "--faults", "loss=2"],
    ["sweep", "--nodes", "10", "0"],
    ["metrics", "--period", "0"],
], ids=["figure", "fig04", "sweep", "metrics"])
def test_every_subcommand_rejects_bad_input_before_running(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.startswith("repro: error: ")


def test_sweep_fault_specs_get_distinct_cache_keys(capsys, tmp_path):
    base = ["sweep", "--protocols", "dad", "--nodes", "10",
            "--seeds", "1", "--speed", "0", "--settle", "5",
            "--workers", "1", "--cache", str(tmp_path)]
    assert main(base + ["--faults", "loss=0.1"]) == 0
    out = capsys.readouterr().out
    assert "executed=1" in out

    assert main(base + ["--faults", "loss=0.1"]) == 0
    out = capsys.readouterr().out
    assert "cache_hits=1" in out and "(100 % cached)" in out

    # A different (or absent) fault spec is a different cell.
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "executed=1" in out and "cache_hits=0" in out


def test_figure_accepts_workers_and_cache(capsys, tmp_path):
    from repro.experiments import sweep

    installed = sweep._default_executor
    code = main(["figure", "fig05", "--seeds", "1",
                 "--workers", "1", "--cache", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Fig. 5" in out
    assert list(tmp_path.glob("*.json"))  # runs were cached
    # The executor was passed to the figure, not installed process-wide.
    assert sweep._default_executor is installed


def test_figure_with_faults_rerun_is_all_cache_hits(capsys, tmp_path):
    argv = ["figure", "fig05", "--seeds", "1", "--faults", "loss=0.1",
            "--cache", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    entries = sorted(tmp_path.glob("*.json"))
    assert len(entries) == 8  # 2 curves x 4 sizes x 1 seed
    assert all('"loss_rate": 0.1' in path.read_text() for path in entries)
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert sorted(tmp_path.glob("*.json")) == entries


def test_trace_renders_span_trees(capsys):
    code = main(["trace", "--nodes", "15", "--seed", "1", "--settle", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "span corr=1" in out
    assert "outcome=completed" in out
    assert "spans:" in out  # the trailing summary line


def test_trace_format_and_filter_flags(capsys):
    base = ["trace", "--nodes", "15", "--seed", "1", "--settle", "10"]
    assert main(base + ["--format", "summary"]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("spans:")

    assert main(base + ["--format", "timeline", "--etype",
                        "vote.decide"]) == 0
    timeline = capsys.readouterr().out
    lines = [l for l in timeline.splitlines() if l and "events)" not in l]
    assert lines and all("vote.decide" in l for l in lines)


def test_trace_jsonl_out_and_reload(capsys, tmp_path):
    out_file = tmp_path / "trace.jsonl"
    assert main(["trace", "--nodes", "15", "--seed", "1", "--settle", "10",
                 "--format", "jsonl", "--out", str(out_file)]) == 0
    capsys.readouterr()
    # The exported JSONL renders identically when loaded back in.
    assert main(["trace", "--in", str(out_file), "--format",
                 "summary"]) == 0
    reloaded = capsys.readouterr().out
    assert main(["trace", "--nodes", "15", "--seed", "1", "--settle", "10",
                 "--format", "summary"]) == 0
    assert capsys.readouterr().out == reloaded


def test_run_with_trace_reports_span_outcomes(capsys):
    code = main(["run", "--nodes", "15", "--settle", "10", "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "spans: completed" in out


def test_sweep_trace_out_forces_serial_and_collects_jsonl(
        capsys, tmp_path):
    from repro.obs import events_from_jsonl, trace_export_path

    out_file = tmp_path / "sweep.jsonl"
    code = main(["sweep", "--protocols", "quorum", "--nodes", "12",
                 "--seeds", "1", "--speed", "0", "--settle", "5",
                 "--workers", "4", "--trace-out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert "forces serial" in captured.err
    assert "spans:" in captured.out
    text = out_file.read_text()
    assert '"run"' in text.splitlines()[0]
    assert events_from_jsonl(text)
    assert trace_export_path() is None  # sink reset on exit


@pytest.mark.parametrize("flag", ["--trace-out", "--metrics-out"])
def test_export_with_a_warm_cache_rewrites_the_same_bytes(
        capsys, tmp_path, monkeypatch, flag):
    """A cache hit never runs the exporter, so an export run executes
    every cell — whether the cache came from --cache or the env."""
    out_file = tmp_path / "export.jsonl"
    base = ["sweep", "--protocols", "quorum", "--nodes", "12",
            "--seeds", "1", "--speed", "0", "--settle", "5",
            "--workers", "1", flag, str(out_file)]
    assert main(base + ["--cache", str(tmp_path / "cache")]) == 0
    first = out_file.read_bytes()
    assert first
    capsys.readouterr()
    assert main(base + ["--cache", str(tmp_path / "cache")]) == 0
    assert out_file.read_bytes() == first
    captured = capsys.readouterr()
    assert "executed=1 cache_hits=0" in captured.out
    assert "uncached" in captured.err
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
    assert main(base) == 0
    assert out_file.read_bytes() == first
    # The export runs still stored their cells: no sink, all hits.
    assert main(base[:-2] + [flag.replace("-out", "")]) == 0
    assert "cache_hits=1" in capsys.readouterr().out


def test_traced_sweep_cells_cache_separately_from_untraced(
        capsys, tmp_path):
    base = ["sweep", "--protocols", "dad", "--nodes", "10",
            "--seeds", "1", "--speed", "0", "--settle", "5",
            "--workers", "1", "--cache", str(tmp_path)]
    assert main(base) == 0
    assert "executed=1" in capsys.readouterr().out

    # Tracing changes the cell key (results carry span aggregates)...
    assert main(base + ["--trace"]) == 0
    assert "executed=1" in capsys.readouterr().out

    # ...but untraced reruns still hit the original cache entry.
    assert main(base) == 0
    assert "cache_hits=1" in capsys.readouterr().out
