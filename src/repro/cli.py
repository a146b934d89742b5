"""Command-line interface.

Subcommands::

    python -m repro run      --protocol quorum --nodes 100 --seed 1
    python -m repro compare  --nodes 80 --seed 1
    python -m repro figure   fig05 --workers 4  # any figNN or table1
    python -m repro sweep    --protocols quorum manetconf --nodes 50 100
    python -m repro layout   --nodes 100      # Fig. 4-style ASCII map
    python -m repro lint     --out F.json     # static invariant checks
    python -m repro trace    --nodes 30 --seed 1 --format spans
    python -m repro metrics  --nodes 30 --seed 1 --format spark

``run`` prints the quickstart-style report for one protocol; ``compare``
tabulates all protocols on the same workload; ``figure`` regenerates a
paper figure's series (optionally fanned out over worker processes);
``sweep`` runs an explicit (protocol x size x seed) grid through the
parallel executor; ``layout`` draws the clustered network; ``lint``
runs the AST-based determinism and protocol-invariant analyzer
(:mod:`repro.lint`); ``trace`` records a scenario's structured event
stream (:mod:`repro.obs`) — or loads one exported with ``--trace-out``
— and renders it as a timeline, span trees, JSONL or an outcome
summary.

``run``, ``figure`` and ``sweep`` accept ``--trace`` (record events,
report span aggregates) and ``--trace-out FILE`` (append each traced
run's JSONL to FILE; implies ``--trace`` and forces serial, uncached
execution: worker processes do not inherit the export sink, and a cell
served from the run cache exports nothing).

``metrics`` mirrors ``trace`` for the run-level gauge series
(:mod:`repro.obs.metrics`): it records one scenario — or reloads a
``--metrics-out`` JSONL export via ``--in`` — and renders sparklines,
a stats table, CSV or JSONL.  ``run``, ``figure`` and ``sweep``
accept ``--metrics`` / ``--metrics-period`` / ``--metrics-out`` with
the same semantics as the trace flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Dict, List, Optional, TypeVar

from repro.experiments import (
    Scenario,
    figures,
    format_series,
    format_table,
    run_scenario,
)
from repro.experiments.report import format_layout
from repro.experiments.runner import PROTOCOLS, ScenarioRunner
from repro.experiments.sweep import (
    SweepExecutor,
    SweepSummary,
    default_executor,
    derive_seeds,
    expand_grid,
)
from repro.faults import FaultSpec
from repro.lint import cli as lint_cli
from repro.obs import (
    build_spans,
    events_from_jsonl,
    events_to_jsonl,
    filter_events,
    series_from_jsonl,
    series_to_csv,
    series_to_jsonl,
    set_metrics_export,
    set_trace_export,
)
from repro.obs.render import (
    render_metrics,
    render_spans,
    render_summary,
    render_timeline,
)

T = TypeVar("T")

FIGURES = {
    "fig05": figures.fig05_latency_vs_size,
    "fig06": figures.fig06_latency_vs_range,
    "fig07": figures.fig07_latency_grid,
    "fig08": figures.fig08_config_overhead,
    "fig09": figures.fig09_departure_overhead,
    "fig10": figures.fig10_maintenance_overhead,
    "fig11": figures.fig11_movement_vs_speed,
    "fig12": figures.fig12_ip_space_extension,
    "fig13": figures.fig13_information_loss,
    "fig14": figures.fig14_reclamation_overhead,
    "robustness": figures.robustness_vs_loss,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quorum-based IP autoconfiguration in MANETs "
                    "(Xu & Wu, ICDCS 2007) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--nodes", type=int, default=100,
                       help="network size (paper sweeps 50-200)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--tr", type=float, default=150.0,
                       help="transmission range in meters")
        p.add_argument("--speed", type=float, default=20.0,
                       help="node speed in m/s after configuration")
        p.add_argument("--depart", type=float, default=0.0,
                       help="fraction of nodes that depart")
        p.add_argument("--abrupt", type=float, default=0.0,
                       help="probability a departure is abrupt")
        p.add_argument("--settle", type=float, default=30.0,
                       help="extra simulated seconds after the last event")
        add_faults_arg(p)

    def add_faults_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault-injection spec, e.g. "
                            "'loss=0.1,delay=0.02,crash=7@40-70,"
                            "cut=1+2@50-80' (see repro.faults)")

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--trace", action="store_true",
                       help="record structured protocol events "
                            "(repro.obs) and report span aggregates")
        p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="append each traced run's JSONL to FILE "
                            "(implies --trace; forces serial, uncached "
                            "execution)")

    def add_metrics_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--metrics", action="store_true",
                       help="sample run-level gauge series "
                            "(repro.obs.metrics) on a sim-time cadence")
        p.add_argument("--metrics-period", type=float, default=None,
                       metavar="S",
                       help="sampling cadence in simulated seconds "
                            "(default: 1.0; implies --metrics)")
        p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="append each run's metrics JSONL to FILE "
                            "(implies --metrics; forces serial, uncached "
                            "execution)")

    run_p = sub.add_parser("run", help="run one protocol, print a report")
    add_scenario_args(run_p)
    run_p.add_argument("--protocol", choices=sorted(PROTOCOLS),
                       default="quorum")
    add_trace_args(run_p)
    add_metrics_args(run_p)

    cmp_p = sub.add_parser("compare", help="all protocols, one table")
    add_scenario_args(cmp_p)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("name", choices=sorted(FIGURES) + ["table1", "fig04"])
    fig_p.add_argument("--seeds", type=int, nargs="+", default=[1])
    fig_p.add_argument("--workers", type=int, default=None,
                       help="worker processes for the figure's runs "
                            "(default: serial; 0 = os.cpu_count())")
    fig_p.add_argument("--cache", default=None, metavar="DIR",
                       help="cache run results under DIR; re-running "
                            "the figure only executes missing cells")
    add_faults_arg(fig_p)
    add_trace_args(fig_p)
    add_metrics_args(fig_p)

    sw_p = sub.add_parser(
        "sweep", help="run a (protocol x size x seed) grid in parallel")
    sw_p.add_argument("--protocols", nargs="+", default=["quorum"],
                      choices=sorted(PROTOCOLS), metavar="PROTO")
    sw_p.add_argument("--nodes", type=int, nargs="+", default=[50, 100],
                      help="network sizes to sweep")
    sw_p.add_argument("--seeds", type=int, nargs="+", default=None,
                      help="explicit seeds (default: derive --replicates "
                           "seeds from --master-seed)")
    sw_p.add_argument("--replicates", type=int, default=2,
                      help="seeds per cell when --seeds is not given")
    sw_p.add_argument("--master-seed", type=int, default=0,
                      help="master seed the per-replicate seeds derive from")
    sw_p.add_argument("--tr", type=float, default=150.0)
    sw_p.add_argument("--speed", type=float, default=20.0)
    sw_p.add_argument("--settle", type=float, default=30.0)
    sw_p.add_argument("--workers", type=int, default=None,
                      help="worker processes (default: REPRO_SWEEP_WORKERS "
                           "or os.cpu_count(); 1 = serial; "
                           "0 = os.cpu_count())")
    sw_p.add_argument("--cache", default=None, metavar="DIR",
                      help="cache run results under DIR")
    sw_p.add_argument("--out", default=None, metavar="FILE",
                      help="write the streamed sweep summary (canonical "
                           "JSON, byte-identical to the materialized "
                           "aggregates) to FILE")
    add_faults_arg(sw_p)
    add_trace_args(sw_p)
    add_metrics_args(sw_p)

    tr_p = sub.add_parser(
        "trace",
        help="record (or load) a structured protocol trace and render it")
    add_scenario_args(tr_p)
    tr_p.add_argument("--protocol", choices=sorted(PROTOCOLS),
                      default="quorum")
    tr_p.add_argument("--in", dest="infile", default=None, metavar="FILE",
                      help="render a JSONL trace exported with "
                           "--trace-out instead of running a scenario")
    tr_p.add_argument("--node", type=int, nargs="+", default=None,
                      help="only events at these node ids")
    tr_p.add_argument("--etype", nargs="+", default=None, metavar="ETYPE",
                      help="only these event types (e.g. vote.decide)")
    tr_p.add_argument("--span", type=int, default=None, metavar="CORR",
                      help="only the span with this correlation id")
    tr_p.add_argument("--since", type=float, default=None, metavar="T",
                      help="drop events before sim-time T")
    tr_p.add_argument("--until", type=float, default=None, metavar="T",
                      help="drop events after sim-time T")
    tr_p.add_argument("--format", default="spans",
                      choices=["timeline", "spans", "jsonl", "summary"],
                      help="rendering: flat timeline, per-allocation "
                           "span trees, canonical JSONL, or a one-line "
                           "outcome tally")
    tr_p.add_argument("--out", default=None, metavar="FILE",
                      help="write the rendering to FILE instead of stdout")

    met_p = sub.add_parser(
        "metrics",
        help="sample (or load) a run's gauge series and render it")
    add_scenario_args(met_p)
    met_p.add_argument("--protocol", choices=sorted(PROTOCOLS),
                       default="quorum")
    met_p.add_argument("--period", type=float, default=1.0, metavar="S",
                       help="sampling cadence in simulated seconds "
                            "(default: %(default)s)")
    met_p.add_argument("--in", dest="infile", default=None, metavar="FILE",
                       help="render a JSONL export written with "
                            "--metrics-out instead of running a scenario")
    met_p.add_argument("--name", nargs="+", default=None, metavar="METRIC",
                       help="only these metric names (default: all)")
    met_p.add_argument("--format", default="spark",
                       choices=["spark", "table", "csv", "jsonl"],
                       help="rendering: sparklines, per-metric stats "
                            "table, CSV (one column per metric) or "
                            "canonical JSONL")
    met_p.add_argument("--out", default=None, metavar="FILE",
                       help="write the rendering to FILE instead of stdout")

    lay_p = sub.add_parser("layout", help="draw a Fig. 4-style layout")
    lay_p.add_argument("--nodes", type=int, default=100)
    lay_p.add_argument("--seed", type=int, default=1)
    lay_p.add_argument("--tr", type=float, default=150.0)

    lint_p = sub.add_parser(
        "lint",
        help="static determinism & protocol-invariant checks")
    lint_cli.configure_parser(lint_p)
    return parser


def _checked(build: Callable[..., T], *args: Any, **kwargs: Any) -> T:
    """``build(...)`` over values the command line supplied: what
    :class:`Scenario` or :meth:`FaultSpec.parse` refuses is a usage
    error (the message names the field, exit status 2 like argparse's
    own), not a traceback."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def worker_count(workers: Optional[int]) -> Optional[int]:
    """``--workers`` as ``figure`` and ``sweep`` read it: ``None`` leaves
    the subcommand's default, ``0`` means every core, and a negative
    count is refused."""
    if workers is not None and workers < 0:
        raise ValueError(f"--workers must be >= 0 (0 = every core), "
                         f"got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def scenario_defaults(args: argparse.Namespace) -> Dict[str, Any]:
    """The :class:`Scenario` fields ``--faults``, ``--trace[-out]`` and
    ``--metrics[-period|-out]`` set (empty when none was given)."""
    fields: Dict[str, Any] = {}
    spec = getattr(args, "faults", None)
    if spec:
        fields["faults"] = _checked(FaultSpec.parse, spec)
    if getattr(args, "trace", False) or getattr(args, "trace_out", None):
        fields["trace"] = True
    period = getattr(args, "metrics_period", None)
    if (getattr(args, "metrics", False) or getattr(args, "metrics_out", None)
            or period is not None):
        fields["metrics"] = True
        if period is not None:
            fields["metrics_period"] = period
    _checked(Scenario, **fields)
    return fields


def scenario_from(args: argparse.Namespace, **fields: Any) -> Scenario:
    """The scenario a subcommand's flags describe; ``fields`` are what
    the subcommand itself turns on."""
    return _checked(
        Scenario,
        num_nodes=args.nodes, seed=args.seed, transmission_range=args.tr,
        speed_mps=args.speed, depart_fraction=args.depart,
        abrupt_probability=args.abrupt, settle_time=args.settle,
        **{**scenario_defaults(args), **fields})


def open_export_sinks(args: argparse.Namespace) -> None:
    """Point the per-run JSONL exporters at ``--trace-out`` /
    ``--metrics-out``."""
    for path, install in (
            (getattr(args, "trace_out", None), set_trace_export),
            (getattr(args, "metrics_out", None), set_metrics_export)):
        if path:
            # The per-run exporter appends; start each invocation fresh.
            open(path, "w", encoding="utf-8").close()
            install(path)


def cmd_run(args: argparse.Namespace) -> int:
    scenario = scenario_from(args)
    result = run_scenario(scenario, protocol=args.protocol)
    rows = [
        ["configured",
         f"{result.configured_count()}/{args.nodes} "
         f"({100 * result.configuration_success_rate():.0f} %)"],
        ["latency (hops)", round(result.avg_config_latency_hops(), 2)],
        ["latency (s)", round(result.avg_config_latency_time(), 2)],
        ["unique addresses", result.uniqueness_ok()],
        ["cluster heads", result.head_count],
        ["avg |QDSet|", round(result.avg_qdset_size(), 1)],
        ["IP space extension", f"{result.avg_extension_ratio():.1f}x"],
        ["graceful departures", result.graceful_departures],
        ["abrupt departures", result.abrupt_departures],
        ["info loss", f"{result.information_loss_pct():.1f} %"],
    ]
    rows += [[f"hops: {k}", v] for k, v in sorted(result.stats_hops.items())
             if v]
    rows += [[f"fault drops: {k}", v]
             for k, v in sorted(result.stats_drops.items())]
    rows += [[f"event: {k}", v] for k, v in sorted(result.events.items())
             if k.startswith("fault_")]
    rows += [[f"spans: {k}", v] for k, v in sorted(result.obs_spans.items())]
    print(f"protocol: {args.protocol}  nodes: {args.nodes}  "
          f"seed: {args.seed}")
    print(format_table(["metric", "value"], rows))
    if result.obs_metrics:
        print()
        print(render_metrics(result.obs_metrics, scenario.metrics_period))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = scenario_from(args)
    rows = []
    for protocol in sorted(PROTOCOLS):
        result = run_scenario(scenario, protocol=protocol)
        rows.append([
            protocol,
            f"{100 * result.configuration_success_rate():.0f} %",
            round(result.avg_config_latency_hops(), 1),
            round(result.config_overhead_per_node(), 1),
            round(result.departure_overhead_per_departure(), 1),
        ])
    print(format_table(
        ["protocol", "configured", "latency (hops)",
         "config hops/node", "departure hops"], rows))
    return 0


def _note_export(args: argparse.Namespace, executor: SweepExecutor,
                 was_parallel: bool) -> None:
    """Say what ``--trace-out`` / ``--metrics-out`` overrode, if anything.

    Worker processes never inherit the export sinks, and a cell served
    from the run cache exports nothing — so the run is serial and the
    executor reads no cached cell while a sink is set.
    """
    if was_parallel or executor.cache is not None:
        flag = "--trace-out" if args.trace_out else "--metrics-out"
        print(f"note: {flag} forces serial, uncached execution",
              file=sys.stderr)


def _figure_executor(args: argparse.Namespace) -> SweepExecutor:
    """The executor ``--workers`` / ``--cache`` ask for."""
    workers = _checked(worker_count, args.workers)
    if args.trace_out or args.metrics_out:
        executor = SweepExecutor(workers=1, cache_dir=args.cache)
        _note_export(args, executor, workers not in (None, 1))
        return executor
    if workers is None and args.cache is None:
        return default_executor()  # env-configured, else serial
    return SweepExecutor(workers=workers or 1, cache_dir=args.cache)


def cmd_figure(args: argparse.Namespace) -> int:
    if args.name == "table1":
        outcome = figures.table1_message_exchange()
        print(outcome["title"])
        print(f"expected: {' -> '.join(outcome['expected'])}")
        print(f"observed: {' -> '.join(outcome['observed'])}")
        return 0 if outcome["observed"] == outcome["expected"] else 1
    defaults = scenario_defaults(args)
    if args.name == "fig04":
        print(format_layout(figures.fig04_layout(defaults=defaults)))
        return 0
    result = FIGURES[args.name](
        seeds=tuple(args.seeds), executor=_figure_executor(args),
        defaults=defaults)
    print(format_series(result))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    workers = _checked(worker_count, args.workers)
    seeds = (tuple(args.seeds) if args.seeds is not None
             else derive_seeds(args.master_seed, args.replicates))
    defaults = scenario_defaults(args)
    scenarios = [
        _checked(Scenario, num_nodes=n, seed=seed,
                 transmission_range=args.tr, speed_mps=args.speed,
                 settle_time=args.settle, **defaults)
        for n in args.nodes for seed in seeds
    ]
    specs = expand_grid(args.protocols, scenarios)

    def progress(done: int, total: int, spec) -> None:
        print(f"\r[{done}/{total}] {spec.protocol} "
              f"nn={spec.scenario.num_nodes} seed={spec.scenario.seed}    ",
              end="", file=sys.stderr, flush=True)

    exporting = bool(args.trace_out or args.metrics_out)
    executor = SweepExecutor(
        workers=1 if exporting else workers,
        cache_dir=args.cache, progress=progress)
    if exporting:
        _note_export(args, executor, workers != 1)

    # Stream cells instead of materializing a SweepReport: rows and the
    # summary fold incrementally, so a large grid never holds every
    # RunResult at once, and --out gets the canonical streamed summary.
    summary = SweepSummary()
    rows = []
    for cell in executor.stream(specs):
        summary.fold(cell)
        spec, result = cell.spec, cell.result
        rows.append([
            spec.protocol, spec.scenario.num_nodes, spec.scenario.seed,
            f"{100 * result.configuration_success_rate():.0f} %",
            round(result.avg_config_latency_hops(), 1),
            round(result.config_overhead_per_node(), 1),
            "hit" if cell.cached else f"{cell.duration:.2f}s",
        ])
    print(file=sys.stderr)

    print(format_table(
        ["protocol", "nodes", "seed", "configured", "latency (hops)",
         "config hops/node", "run"], rows))
    counts = executor.stats.snapshot()
    print(f"\n{len(specs)} cells, workers={executor.workers}, "
          f"compute {summary.compute_s:.2f}s; "
          f"executed={counts.get('executed', 0)} "
          f"cache_hits={counts.get('cache_hit', 0)} "
          f"failed={counts.get('failed', 0)} "
          f"({100 * summary.cache_hit_rate():.0f} % cached)")
    span_totals = summary.obs_span_totals()
    if span_totals:
        tally = " ".join(f"{k}={v}" for k, v in span_totals.items())
        print(f"spans: {tally}")
    metric_totals = summary.obs_metric_totals()
    if metric_totals:
        samples = max(len(v) for v in metric_totals.values())
        print(f"metrics: {len(metric_totals)} series x {samples} samples "
              "(summed across cells)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(summary.to_json() + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            events = events_from_jsonl(fh.read())
    else:
        scenario = scenario_from(args, trace=True)
        runner = ScenarioRunner(scenario, protocol=args.protocol)
        runner.run()
        assert runner.recorder is not None
        if runner.recorder.truncated:
            print(f"warning: {runner.recorder.truncated} events past the "
                  "recorder limit were dropped", file=sys.stderr)
        events = runner.recorder.events
    events = filter_events(events, nodes=args.node, etypes=args.etype,
                           corr=args.span, since=args.since,
                           until=args.until)
    if args.format == "timeline":
        text = render_timeline(events)
    elif args.format == "jsonl":
        text = events_to_jsonl(events).rstrip("\n")
    else:
        spans = build_spans(events)
        text = (render_spans(spans) if args.format == "spans"
                else render_summary(spans))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.infile:
        with open(args.infile, "r", encoding="utf-8") as fh:
            blocks = series_from_jsonl(fh.read())
    else:
        scenario = scenario_from(
            args, metrics=True, metrics_period=args.period)
        result = run_scenario(scenario, protocol=args.protocol)
        header = {"period": args.period, "protocol": args.protocol,
                  "seed": args.seed, "num_nodes": args.nodes,
                  "samples": max((len(v) for v in
                                  result.obs_metrics.values()), default=0)}
        blocks = [(header, result.obs_metrics)]
    pieces = []
    for header, series in blocks:
        period = float(header.get("period", 1.0))
        if args.name:
            missing = sorted(set(args.name) - set(series))
            if missing:
                print(f"warning: no series named {', '.join(missing)}",
                      file=sys.stderr)
            series = {name: values for name, values in series.items()
                      if name in set(args.name)}
        tag = " ".join(
            f"{key}={header[key]}"
            for key in ("protocol", "num_nodes", "seed")
            if key in header)
        if args.format == "jsonl":
            # Carry the run identity so a later ``--in`` reload renders
            # the same header tag as the direct run.
            meta = {key: header[key]
                    for key in ("protocol", "num_nodes", "seed")
                    if key in header}
            pieces.append(
                series_to_jsonl(series, period, meta=meta).rstrip("\n"))
        elif args.format == "csv":
            pieces.append(series_to_csv(series, period).rstrip("\n"))
        elif args.format == "table":
            rows = [
                [name, len(values),
                 min(values) if values else 0,
                 max(values) if values else 0,
                 values[-1] if values else 0]
                for name, values in sorted(series.items())
            ]
            table = format_table(
                ["metric", "samples", "min", "max", "last"], rows)
            pieces.append(f"{tag}\n{table}" if tag else table)
        else:
            rendered = render_metrics(series, period)
            pieces.append(f"{tag}\n{rendered}" if tag else rendered)
    text = "\n\n".join(pieces) if pieces else "(no metrics)"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    layout = figures.fig04_layout(
        num_nodes=args.nodes, seed=args.seed,
        transmission_range=args.tr)
    print(format_layout(layout))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    open_export_sinks(args)
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "figure": cmd_figure,
        "sweep": cmd_sweep,
        "trace": cmd_trace,
        "metrics": cmd_metrics,
        "layout": cmd_layout,
        "lint": lint_cli.run,
    }
    try:
        return handlers[args.command](args)
    finally:
        set_trace_export(None)
        set_metrics_export(None)


if __name__ == "__main__":
    sys.exit(main())
