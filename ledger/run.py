#!/usr/bin/env python3
"""The repo's one perf ledger (see README.md beside this file).

Three ways in::

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1
        One measurement in this process; the last line of stdout is
        the result object BENCHMARK.json's contract asks for.

    python3 ledger/run.py --seed 11 [--reps 3] [--out FILE]
        Every workload in fresh child processes, one after another:
        ``--reps`` untraced runs and one traced run each.  Checks the
        exact metrics repeat, prints every metric by name with its
        unit, and writes the result file (default ledger/out/latest.json).

    python3 ledger/run.py --compare A.json B.json
        Verdict per (workload, end-to-end metric); exit 1 on "regressed".
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
OUT_DIR = LEDGER_DIR / "out"
sys.path.insert(0, str(LEDGER_DIR))

import clock  # noqa: E402
import compare  # noqa: E402

#: Expected seconds of one whole run at the declared ``run_seconds``;
#: a child gets four times this before its wall guard stops it.
EXPECTED_RUN_S = 40.0
WALL_GUARD_S = 4 * EXPECTED_RUN_S


def load_declaration() -> Dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as source:
        return json.load(source)


def load_tracer_module() -> Any:
    """``trace.py`` under a name that leaves the standard library's
    ``trace`` module alone."""
    module = sys.modules.get("ledger_trace")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "ledger_trace", LEDGER_DIR / "trace.py")
        assert spec is not None and spec.loader is not None
        module = sys.modules["ledger_trace"] = (
            importlib.util.module_from_spec(spec))
        spec.loader.exec_module(module)
    return module


# ----------------------------------------------------------------------
# One pass: set-up, measured steps, output check
# ----------------------------------------------------------------------
class Pass:
    """One set-up plus one run of a workload's measured steps."""

    def __init__(self, workload: Any, setup: clock.Step,
                 steps: List[clock.Step], facts: Any) -> None:
        self.workload = workload
        self.setup = setup
        self.steps = steps
        self.facts = facts

    @property
    def wall_s(self) -> float:
        return sum(step.wall_s for step in self.steps)


def run_pass(workload: Any, stopwatch: clock.Stopwatch, events: Any,
             tracer: Any = None) -> Pass:
    gc.collect()
    setup = stopwatch.run("setup", workload.setup_segments())
    fired_before = events.total
    steps: List[clock.Step] = []
    for name, segments in workload.steps():
        if tracer is not None:
            tracer.bucket(name)
            segments = [(seg, tracer.root(fn, seg)) for seg, fn in segments]
        steps.append(stopwatch.run(name, segments))
        if tracer is not None:
            tracer.bucket("run")    # checks between steps are not timed
    facts = workload.collect(steps, events.total - fired_before)
    return Pass(workload, setup, steps, facts)


def exact_differences(a: Dict[str, float], b: Dict[str, float]) -> List[str]:
    return [f"{key}: {a.get(key)} != {b.get(key)}"
            for key in sorted(set(a) | set(b)) if a.get(key) != b.get(key)]


def median_step_sum(passes: Sequence[Pass]) -> float:
    """Sum over steps of the step's median calibrated time over passes."""
    return sum(
        statistics.median(p.steps[i].wall_s for p in passes)
        for i in range(len(passes[0].steps)))


# ----------------------------------------------------------------------
# End-to-end metrics (untraced passes)
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: Sequence[Pass], import_s: float,
               first_pass_rss_mb: float) -> Dict[str, float]:
    facts = passes[0].facts
    attempted = max(1, facts.attempted)
    return {
        "wall_s": median_step_sum(passes),
        "setup_s": import_s + statistics.median(
            p.setup.wall_s for p in passes),
        # Read after the first pass: later passes add allocator
        # fragmentation that depends on how many of them fit the run.
        "peak_rss_mb": first_pass_rss_mb,
        "events_fired": facts.exact["events_fired"],
        "latency_hops_mean": facts.exact["latency_hops_mean"],
        "latency_hops_p90": facts.exact["latency_hops_p90"],
        "msg_hops_per_op": facts.exact["msg_hops"] / attempted,
        "completed_fraction": facts.completed / attempted,
    }


# ----------------------------------------------------------------------
# Per-layer metrics (one plain pass, one shimmed pass)
# ----------------------------------------------------------------------
class LayerTimes:
    """The tracer's totals inside the measured steps, each bucket
    rescaled by its step (set-up and checks fall in no step)."""

    def __init__(self, tracer: Any, traced: Pass) -> None:
        scales = {step.name: step.scale for step in traced.steps}
        self.by_bucket: Dict[str, Dict[str, Tuple[float, int]]] = {
            bucket: {name: (self_s * scales[bucket], calls)
                     for name, (self_s, calls) in names.items()}
            for bucket, names in tracer.totals().items() if bucket in scales}

    def self_s(self, layer: str, bucket: Optional[str] = None) -> float:
        prefix = layer + ":"
        return sum(
            self_s
            for name_bucket, names in self.by_bucket.items()
            if bucket is None or name_bucket == bucket
            for name, (self_s, _calls) in names.items()
            if name.startswith(prefix))

    def calls(self, name: str) -> int:
        return sum(names[name][1] for names in self.by_bucket.values()
                   if name in names)

    def name_self_s(self, name: str) -> float:
        return sum(names[name][0] for names in self.by_bucket.values()
                   if name in names)


def per_layer(plain: Pass, traced: Pass, tracer: Any,
              extras: Dict[str, float]) -> Dict[str, float]:
    from workloads import ScaleLifecycle, percentile

    layers = load_tracer_module().LAYERS

    exact, host = plain.facts.exact, plain.facts.host
    times = LayerTimes(tracer, traced)
    wall = plain.wall_s
    events = exact["events_fired"]

    def perf(name: str) -> float:
        return exact.get("perf." + name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    messages = sum(value for key, value in exact.items()
                   if key.startswith("msgs.") and key != "msgs.hello")
    drops = sum(value for key, value in exact.items()
                if key.startswith("drops."))
    scheduled = times.calls("sim:Simulator.schedule_at")
    cancelled = times.calls("sim:Simulator.cancel")
    collectors = times.calls("quorum:VoteCollector.__init__")
    core_us = sorted(1e6 * d for d in tracer.core_durations)
    attributed = sum(times.self_s(layer) for layer in layers
                     if layer != "driver")
    settle_s = plain.workload.constants().get("settle_s", 0.0)
    out = {
        "sim.us_per_event": ratio(1e6 * wall, events),
        "sim.events_per_s": ratio(events, wall),
        "sim.sim_s_per_wall_s": ratio(exact["sim_seconds"], wall),
        "sim.compactions": exact["sim.compactions"],
        "sim.heap_size_end": exact["sim.heap_size_end"],
        "sim.schedule_calls": scheduled,
        "sim.cancel_calls": cancelled,
        "sim.cancel_ratio": ratio(cancelled, scheduled),
        "sim.self_s": times.self_s("sim"),
        "sim.timer_churn_us": host.get("sim.timer_churn_us", 0.0),
        "sim.noop_event_us": host.get("sim.noop_event_us", 0.0),
        "net.topology.rebuilds_full": perf("graph_full_rebuilds"),
        "net.topology.rebuilds_delta": perf("graph_delta_rebuilds"),
        "net.topology.positions_recomputed":
            perf("graph_positions_recomputed"),
        "net.topology.shards_touched": perf("graph_shards_touched"),
        "net.topology.bfs_calls": perf("bfs_calls"),
        "net.topology.bfs_nodes_expanded": perf("bfs_nodes_expanded"),
        "net.topology.bfs_unbounded": perf("bfs_unbounded"),
        "net.topology.bfs_cache_hit_ratio": ratio(
            perf("bfs_cache_hits"), perf("bfs_cache_hits") + perf("bfs_calls")),
        "net.topology.label_hits": perf("conn_label_hits"),
        "net.topology.relabels_full": perf("conn_full_relabels"),
        "net.topology.relabels_delta": perf("conn_delta_relabels"),
        "net.topology.slots_relabeled": perf("conn_slots_relabeled"),
        "net.topology.bfs_s": host.get("timer.topology.bfs", 0.0),
        "net.topology.rebuild_s": host.get("timer.topology.rebuild", 0.0),
        "net.topology.self_s": times.self_s("net.topology"),
        "net.topology.build_s": (
            plain.setup.segment_s("build")
            if plain.workload.name == "engine_churn" else 0.0),
        "net.transport.sends_unicast": perf("send_unicast"),
        "net.transport.sends_neighbors": perf("send_neighbors"),
        "net.transport.sends_flood": perf("send_flood"),
        "net.transport.hops_total": exact["msg_hops"],
        "net.transport.drops_total": drops,
        "net.transport.drop_ratio": ratio(drops, messages),
        "net.transport.send_s": host.get("timer.transport.send", 0.0),
        "net.transport.self_s": times.self_s("net.transport"),
        "net.context.is_head_calls":
            times.calls("net.context:NetworkContext.is_head"),
        "net.context.heads_within_calls":
            times.calls("net.context:HelloService.heads_within"),
        "net.context.nearest_head_calls":
            times.calls("net.context:HelloService.nearest_head"),
        "net.context.self_s": times.self_s("net.context"),
        "core.events": len(core_us),
        "core.self_s": times.self_s("core"),
        "core.handler_us_p50": percentile(core_us, 0.50),
        "core.handler_us_p99": percentile(core_us, 0.99),
        "core.msgs_per_config": ratio(messages, exact.get("configured", 0)),
        "core.events_per_agent_sim_s": ratio(
            exact.get("phase.settle_events", 0),
            exact.get("agents", 0) * settle_s),
        "quorum.votes_collected": times.calls("quorum:VoteCollector.add_vote"),
        "quorum.decisions": times.calls("quorum:VoteCollector.decide"),
        "quorum.quorum_success_ratio": ratio(
            tracer.tallies.get("quorum.decided", 0), collectors),
        "quorum.self_s": times.self_s("quorum"),
        "addrspace.allocations": tracer.tallies.get(
            "addrspace.allocations", 0),
        "addrspace.releases": tracer.tallies.get("addrspace.releases", 0),
        "addrspace.self_s": times.self_s("addrspace"),
        "faults.drops": drops,
        "faults.crashes": exact.get("ev.fault_crashes", 0),
        "faults.self_s": times.self_s("faults"),
        "experiments.bootstrap_agents_per_s": ratio(
            plain.workload.constants().get("n", 0),
            plain.setup.segment_s("bulk_configure")),
        "experiments.collect_s": times.name_self_s(
            "experiments:ScenarioRunner._collect"),
        "experiments.self_s": times.self_s("experiments"),
        "ledger.trace_overhead_ratio": ratio(traced.wall_s, wall) - 1.0,
        "ledger.unattributed_s": times.self_s("driver"),
        "ledger.attributed_fraction": ratio(
            attributed, attributed + times.self_s("driver")),
    }
    for name in ("quorum_suspect", "quorum_probe", "quorum_shrink",
                 "reclamation_initiated"):
        out["core.ev." + name] = exact.get("ev." + name, 0)
    for phase in ScaleLifecycle.PHASES:
        out[f"phase.{phase}_s"] = host.get(f"phase.{phase}_s", 0.0)
        out[f"phase.{phase}_events"] = exact.get(f"phase.{phase}_events", 0)
        for layer in ("core", "net.topology", "sim"):
            out[f"{layer}.{phase}_self_s"] = times.self_s(layer, phase)
    out["phase.detect_bfs_unbounded"] = exact.get(
        "phase.detect.bfs_unbounded", 0)
    for name in ("refresh_ms_p50", "khop_query_us_p50", "flood_ms_p50",
                 "label_query_us_p50", "churn_batch_ms_p50"):
        out["net.topology." + name] = host.get("net.topology." + name, 0.0)
    out.update(extras)
    return out


OBS_METRICS = ("obs.on_overhead_ratio", "obs.events_recorded",
               "obs.build_spans_s", "obs.jsonl_bytes",
               "obs.profiler_overhead_ratio")


def obs_price_tags(workload: Any, stopwatch: clock.Stopwatch) -> Dict[str, float]:
    """What the program's own instruments cost, un-shimmed.

    ``join_mobile`` replays its first fixed cell with ``trace`` and
    ``metrics`` off and on; ``scale_lifecycle`` replays bootstrap and
    settle with and without ``SubsystemProfiler``.  Off and on alternate
    twice and the medians are compared.  Observability is off in all
    four workloads, so nothing here feeds an end-to-end metric.
    """
    out = dict.fromkeys(OBS_METRICS, 0.0)
    walls: Dict[bool, List[float]] = {False: [], True: []}

    def overhead() -> float:
        return (statistics.median(walls[True])
                / statistics.median(walls[False]) - 1.0)

    if workload.name == "join_mobile":
        import dataclasses

        from repro.experiments.runner import ScenarioRunner
        from repro.obs import build_spans

        for on in (False, True, False, True):
            runner = ScenarioRunner(dataclasses.replace(
                workload.scenarios[0], trace=on, metrics=on))
            walls[on].append(
                stopwatch.run("obs", [("run", runner.run)]).wall_s)
        recorder = runner.recorder
        out["obs.on_overhead_ratio"] = overhead()
        out["obs.events_recorded"] = len(recorder)
        out["obs.build_spans_s"] = stopwatch.run("obs", [
            ("build_spans", lambda: build_spans(recorder.events))]).wall_s
        out["obs.jsonl_bytes"] = len(recorder.to_jsonl())
    elif workload.name == "scale_lifecycle":
        from repro.obs import SubsystemProfiler

        for on in (False, True, False, True):
            replay = type(workload)(workload.seed, False, n=workload.n)
            for _name, fn in replay.setup_segments():
                fn()
            sim = replay.ctx.sim
            profiler = SubsystemProfiler().install(sim) if on else None
            walls[on].append(stopwatch.run("obs", [
                ("settle", lambda: sim.run(until=replay.SETTLE_S))]).wall_s)
            if profiler is not None:
                profiler.uninstall()
        out["obs.profiler_overhead_ratio"] = overhead()
    return out


# ----------------------------------------------------------------------
# One run (the contract's command)
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("the program's source (src/repro) is not in this checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(REPO_ROOT / "src"))
    with clock.Stopwatch(guard_s=WALL_GUARD_S) as stopwatch:
        return _measure(args, declaration, stopwatch)


#: How many times the program's modules are imported for ``setup_s``.
IMPORT_REPEATS = 5


def import_program(stopwatch: clock.Stopwatch) -> Tuple[Any, float]:
    """Import the workloads (and with them the program) several times;
    returns the module and the median calibrated seconds of one import.

    A process imports once, so every repeat first forgets the program's
    modules.  The standard library's modules stay loaded: their import
    time is the interpreter's, not the program's, and falls into the
    first sample only, which the median discards.
    """
    samples = []
    for _ in range(IMPORT_REPEATS):
        for name in [name for name in sys.modules
                     if name.split(".")[0] in ("repro", "workloads")]:
            del sys.modules[name]
        samples.append(stopwatch.run("import", [
            ("import", lambda: importlib.import_module("workloads"))]).wall_s)
    return sys.modules["workloads"], statistics.median(samples)


def _measure(args: argparse.Namespace, declaration: Dict[str, Any],
             stopwatch: clock.Stopwatch) -> int:
    workloads, import_s = import_program(stopwatch)
    cls = workloads.WORKLOADS[args.workload]
    kwargs = {"n": args.n} if args.n and args.workload == "scale_lifecycle" else {}

    def fresh() -> Any:
        return cls(args.seed, args.smoke, **kwargs)

    passes: List[Pass] = []
    problems: List[str] = []
    tracer: Any = None
    first_pass_rss_mb = 0.0
    started = time.perf_counter()
    try:
        with workloads.EventCount() as events:
            if args.trace:
                passes.append(run_pass(fresh(), stopwatch, events))
                tracer = load_tracer_module().Tracer().install()
                stopwatch.on_slice = tracer.exclude
                try:
                    passes.append(run_pass(fresh(), stopwatch, events, tracer))
                finally:
                    stopwatch.on_slice = None
                    tracer.uninstall()
            else:
                # Whole passes until --seconds is used up (one more is
                # started while 40 % of it still fits).
                while True:
                    passes.append(run_pass(fresh(), stopwatch, events))
                    if len(passes) == 1:
                        first_pass_rss_mb = peak_rss_mb()
                    spent = time.perf_counter() - started
                    if spent + 0.4 * spent / len(passes) >= args.seconds:
                        break
    except clock.WallGuardExceeded:
        # A guarded run fails all its operations and prints no result.
        print(f"PROBLEM: wall guard of {WALL_GUARD_S:.0f} s exceeded")
        return 1

    first = passes[0].facts
    for later in passes[1:]:
        differences = exact_differences(first.exact, later.facts.exact)
        if differences:
            problems.append(
                "exact metrics differ between passes of one seed: "
                + "; ".join(differences[:5]))
    problems.extend(first.violations)

    if args.trace:
        assert tracer is not None
        plain, traced = passes
        extras = obs_price_tags(plain.workload, stopwatch)
        metrics = per_layer(plain, traced, tracer, extras)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(str(OUT_DIR / f"trace-{args.workload}.json"), {
            "workload": args.workload, "seed": args.seed,
            "smoke": args.smoke,
            "step_scales": {s.name: s.scale for s in traced.steps},
            "traced_wall_s": traced.wall_s, "plain_wall_s": plain.wall_s})
    else:
        metrics = end_to_end(passes, import_s, first_pass_rss_mb)
    attempted = max(1, first.attempted)
    return emit(args, declaration, not problems, attempted,
                min(first.failed, attempted), metrics, problems, passes)


def emit(args: argparse.Namespace, declaration: Dict[str, Any], correct: bool,
         attempted: int, failed: int, metrics: Dict[str, float],
         problems: List[str], passes: Sequence[Pass]) -> int:
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not produced: {missing}")
        correct = False
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"constants={json.dumps(passes[0].workload.constants())}")
    print(f"  operations attempted={attempted} failed={failed} "
          f"latency samples={passes[0].facts.latency_samples}")
    for metric in declared:
        if metric["name"] in metrics:
            print(f"  {metric['name']:<40} {metrics[metric['name']]:>16.6g} "
                  f"{metric['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in declared if m["name"] in metrics}}))
    return 0


# ----------------------------------------------------------------------
# The whole ledger: every workload, in child processes
# ----------------------------------------------------------------------
def child_result(workload: str, seed: int, seconds: int, trace: int,
                 extra: Sequence[str]) -> Tuple[Optional[Dict[str, Any]], str]:
    command = [sys.executable, str(LEDGER_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, timeout=WALL_GUARD_S + 20)
    except subprocess.TimeoutExpired:
        return None, "child outlived its wall guard"
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, (done.stderr.strip().splitlines() or ["child failed"])[-1]
    try:
        return json.loads(lines[-1]), "\n".join(lines[:-1])
    except json.JSONDecodeError:
        return None, "child printed no result object"


def printed_problems(log: str) -> List[str]:
    return [line for line in log.splitlines() if line.startswith("PROBLEM")]


def run_all(args: argparse.Namespace) -> int:
    declaration = load_declaration()
    seconds = 1 if args.smoke else declaration["run_seconds"]
    extra = ["--smoke"] if args.smoke else []
    result: Dict[str, Any] = {
        "seed": args.seed, "reps": args.reps, "smoke": args.smoke,
        "run_seconds": seconds,
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in declaration["workloads"]):
        runs: List[Dict[str, Any]] = []
        problems: List[str] = []
        for rep in range(args.reps):
            child, log = child_result(workload, args.seed, seconds, 0, extra)
            if child is None:
                problems.append(f"untraced rep {rep}: {log}")
                continue
            runs.append(child)
            problems.extend(printed_problems(log))
        traced, log = child_result(workload, args.seed, seconds, 1, extra)
        if traced is None:
            problems.append(f"traced run: {log}")
        else:
            problems.extend(printed_problems(log))
        # Determinism self-check across processes.
        for name in compare.EXACT_METRICS:
            values = {run["metrics"][name]["value"] for run in runs}
            if len(values) > 1:
                problems.append(
                    f"{name} differs between repetitions: {sorted(values)}")
        if runs and traced is not None and (
                traced["attempted"], traced["failed"]) != (
                runs[0]["attempted"], runs[0]["failed"]):
            problems.append("traced and untraced runs disagree on "
                            "attempted/failed operations")
        # A child that crashed or outlived its wall guard fails all the
        # workload's operations.
        lost = traced is None or len(runs) < args.reps
        attempted = runs[0]["attempted"] if runs else 0
        cell: Dict[str, Any] = {
            "correct": not lost and not problems and traced["correct"]
            and all(run["correct"] for run in runs),
            "attempted": attempted,
            "failed": attempted if lost else runs[0]["failed"],
            "problems": problems,
            "end_to_end": {}, "per_layer": {},
        }
        print(f"== {workload}  (seed {args.seed}, {len(runs)} untraced "
              f"+ {0 if traced is None else 1} traced)")
        for metric in declaration["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            if not values:
                continue
            cell["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "median": statistics.median(values)}
            print(f"  {metric['name']:<40} "
                  f"{statistics.median(values):>16.6g} {metric['unit']}")
        if traced is not None:
            for metric in declaration["per_layer"]:
                value = traced["metrics"][metric["name"]]["value"]
                cell["per_layer"][metric["name"]] = {
                    "unit": metric["unit"], "value": value}
                print(f"  {metric['name']:<40} {value:>16.6g} "
                      f"{metric['unit']}")
        for problem in problems:
            print(f"  {problem}")
        ok = ok and cell["correct"]
        result["workloads"][workload] = cell
    out = Path(args.out) if args.out else OUT_DIR / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload (tests)")
    parser.add_argument("--n", type=int, default=None,
                        help="scale_lifecycle population override")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1],
                            load_declaration())
    if args.workload is None:
        return run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Children run with a fixed hash seed; replace this process.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(
            load_declaration()["run_seconds"])
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
