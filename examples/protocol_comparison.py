#!/usr/bin/env python
"""Protocol comparison — the paper's evaluation in one table.

Runs the same workload under every implemented protocol (the
quorum-based protocol of the paper, MANETconf [1], the buddy scheme [2],
the C-tree scheme [3], plus the surveyed stateless DAD) and prints the
metrics the paper compares: configuration latency, configuration
overhead, and departure overhead.

The runs fan out over the parallel sweep executor
(`repro.experiments.sweep`), so this example doubles as a smoke test of
it: per-protocol wall-clock comes from each cell's compute time, the
totals from folding the cells into a `SweepSummary`, and re-running
with `--cache DIR` serves every cell from the on-disk result cache.

Run:
    python examples/protocol_comparison.py [num_nodes] [seed]
        [--workers N] [--cache DIR]
"""

import argparse
import time

from repro import Scenario
from repro.experiments import format_table
from repro.experiments.runner import PROTOCOLS as _REGISTRY
from repro.experiments.sweep import RunSpec, SweepExecutor, SweepSummary

PROTOCOLS = sorted(_REGISTRY)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("num_nodes", type=int, nargs="?", default=80)
    parser.add_argument("seed", type=int, nargs="?", default=1)
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes (default: 0, every core)")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="cache run results under DIR")
    args = parser.parse_args()

    scenario = Scenario.paper_default(
        num_nodes=args.num_nodes, seed=args.seed,
        depart_fraction=0.3, abrupt_probability=0.2,
        settle_time=30.0,
    )
    specs = [RunSpec(protocol=p, scenario=scenario) for p in PROTOCOLS]

    executor = SweepExecutor(workers=args.workers, cache_dir=args.cache)
    print(f"running {len(specs)} protocols "
          f"on {executor.workers} worker(s) ...")
    started = time.perf_counter()
    summary = SweepSummary()
    rows = []
    for cell in executor.run(specs):
        summary.fold(cell)
        result = cell.result
        rows.append([
            cell.spec.protocol,
            f"{100 * result.configuration_success_rate():.0f} %",
            round(result.avg_config_latency_hops(), 1),
            round(result.config_overhead_per_node(), 1),
            round(result.departure_overhead_per_departure(), 1),
            round(result.reclamation_overhead(), 1),
            "cache hit" if cell.cached else f"{cell.duration:.2f}s",
        ])
    wall_s = time.perf_counter() - started

    print()
    print(f"=== {args.num_nodes} nodes, 1 km^2, tr=150 m, 20 m/s, "
          f"30 % departures (20 % abrupt) ===")
    print(format_table(
        ["protocol", "configured", "latency (hops)",
         "config hops/node", "departure hops", "reclamation hops",
         "wall clock"],
        rows,
    ))
    print(f"\nsweep wall clock: {wall_s:.2f}s "
          f"(sum of per-run compute: {summary.compute_s:.2f}s; "
          f"{100 * summary.cache_hit_rate():.0f} % cache hits)")
    print()
    print("Expected shape (paper, Section VI): the quorum protocol")
    print("configures in fewer hops than MANETconf, with far less")
    print("overhead than the buddy scheme's periodic synchronization;")
    print("buddy/ctree assign locally (1-2 hops) but pay elsewhere.")


if __name__ == "__main__":
    main()
