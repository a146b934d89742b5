"""Smoke tests of the perf ledger.

Run with ``PYTHONPATH=src python -m pytest ledger/tests -q`` (not part
of tier-1: ``pyproject.toml`` pins ``testpaths`` and is out of this
change's reach).  Every workload runs once untraced and once traced at
its ``--smoke`` size, in child processes, and the printed results are
checked against ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parent
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(module: str):
    """Import one ledger file without putting ledger/ on sys.path."""
    spec = importlib.util.spec_from_file_location(
        f"ledger_{module}", LEDGER / f"{module}.py")
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "ledger" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="session")
def smoke_results():
    """``{(workload, trace): result object}`` of all eight smoke runs."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_cli("--workload", workload, "--seed", "11",
                           "--smoke", "--trace", str(trace))
            assert done.returncode == 0, done.stdout + done.stderr
            results[workload, trace] = json.loads(
                done.stdout.strip().splitlines()[-1])
    return results


def test_declaration_meets_the_contract():
    assert set(DECLARATION) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["ledger"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    assert 1 <= DECLARATION["run_seconds"] <= 60
    names = WORKLOADS + [m["name"] for m in DECLARATION["end_to_end"]
                         + DECLARATION["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in DECLARATION["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_output_matches_declaration(smoke_results, workload, trace):
    result = smoke_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARATION["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_agrees_with_untraced(smoke_results, workload):
    plain, traced = smoke_results[workload, 0], smoke_results[workload, 1]
    assert (plain["attempted"], plain["failed"]) == (
        traced["attempted"], traced["failed"])
    assert (traced["metrics"]["net.transport.hops_total"]["value"]
            == pytest.approx(plain["metrics"]["msg_hops_per_op"]["value"]
                             * plain["attempted"]))
    assert traced["metrics"]["ledger.attributed_fraction"]["value"] >= 0.9
    if workload == "engine_churn":
        for layer in ("core", "quorum", "addrspace"):
            assert traced["metrics"][f"{layer}.self_s"]["value"] == 0


def test_self_times_sum_to_the_root_span(smoke_results):
    trace = load("trace")
    for workload in WORKLOADS:
        dumped = json.loads(
            (LEDGER / "out" / f"trace-{workload}.json").read_text())
        spans = dumped["spans"]
        assert spans and len(spans) <= trace.SPAN_CAP
        own = trace.self_times(spans)
        assert min(own.values()) > -1e-9
        per_trace: dict = {}
        roots = {}
        for span in spans:
            per_trace[span[6]] = per_trace.get(span[6], 0.0) + own[span[0]]
            if span[0] == span[6]:
                roots[span[6]] = span[4] - span[3]
        for trace_id, root_s in roots.items():
            assert per_trace[trace_id] <= root_s + 1e-9


def test_shims_are_restored_after_a_traced_run(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONHASHSEED", "0")   # main() re-execs otherwise
    run = load("run")
    trace = load("trace")
    import importlib

    def surface():
        # By qualified name: the run re-imports the program, so the
        # function objects differ, but a left-over shim would show as
        # "Tracer._shim.<locals>.shim" (and a left-over shadow of an
        # inherited method as a name where None was).
        return {(cls_name, attr): getattr(
                    getattr(importlib.import_module(module),
                            cls_name).__dict__.get(attr),
                    "__qualname__", None)
                for module, cls_name, methods, _layer in trace.SHIMS
                for attr in methods}

    before = surface()
    assert run.main(["--workload", "engine_churn", "--seed", "3",
                     "--smoke", "--trace", "1"]) == 0
    capsys.readouterr()
    assert surface() == before
    from repro.sim.engine import Simulator
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    assert sim.run() == 1


def test_compare_of_a_file_with_itself_is_unchanged(smoke_results, tmp_path,
                                                    capsys):
    compare = load("compare")
    result = {"seed": 11, "workloads": {
        workload: {"end_to_end": {
            name: {"unit": metric["unit"],
                   "values": [metric["value"]] * 3}
            for name, metric in smoke_results[workload, 0]["metrics"].items()}}
        for workload in WORKLOADS}}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(result))
    assert compare.main(str(path), str(path), DECLARATION) == 0
    table = compare.rows(result, result, DECLARATION)
    assert len(table) == len(WORKLOADS) * len(DECLARATION["end_to_end"])
    assert {row["verdict"] for row in table} == {"unchanged"}
    capsys.readouterr()


def test_compare_verdicts():
    verdict = load("compare").verdict
    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    assert verdict(steady, steady, 0.10, "lower") == "unchanged"
    assert verdict(steady, [v * 1.2 for v in steady], 0.10,
                   "lower") == "regressed"
    assert verdict(steady, [v * 0.8 for v in steady], 0.10,
                   "lower") == "improved"
    assert verdict(steady, [v * 0.8 for v in steady], 0.10,
                   "higher") == "regressed"
    noisy = [10, 14, 8, 13, 9, 12, 7, 15, 11, 10]
    assert verdict(noisy, [v * 1.02 for v in noisy], 0.10,
                   "lower") == "unresolved"
    # Wider than the bound, but every run of B beats every run of A.
    assert verdict(noisy, [v * 0.4 for v in noisy], 0.10,
                   "lower") == "improved"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(LEDGER, tmp_path / "ledger", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    done = run_cli("--workload", WORKLOADS[0], "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
