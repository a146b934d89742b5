"""The ``repro bench --scale`` n-scaling curve (perf trajectory entry #2).

Where :mod:`repro.perf.bench` measures the engine against its networkx
oracle at a few hundred nodes, this module measures how the engine
itself scales: a constant-density population is grown to n=1k, n=10k
and n=50k (the oracle is far too slow to ride along) and a fixed
workload of graph refreshes, bounded hop queries, component floods,
timer churn and crash/restart fault churn is replayed at every size.
The output answers the question the paper never could — what does a
quorum-style topology service cost more than two orders of magnitude
past the evaluation sizes?

Design choices that keep the curve honest:

* **Constant density, not constant area.**  The area grows with n
  (side = sqrt(n / :data:`DENSITY`)) so the average node degree stays
  fixed (~28 at a 150 m range).  Constant area would densify the graph
  quadratically and measure edge count, not engine scaling.

* **Mostly-static population.**  A :data:`MOBILE_FRACTION` slice moves
  by random waypoint at 20 m/s; the rest are stationary.  This is the
  regime the SoA static-skip and sharded-grid delta rebuilds target,
  and it mirrors the paper's settled-network steady state.  The
  ``graph_positions_recomputed`` / ``graph_shards_touched`` counters
  in the payload show both optimizations doing their work.

* **Node-scoped fault churn.**  A crash/restart phase flips a fixed
  slice of the population dead and alive again, invalidating through
  :meth:`~repro.net.topology.Topology.invalidate_nodes`.  Its counter
  deltas (the ``churn`` section) isolate what a restart storm costs:
  delta rebuilds sized by the churned slice, with the
  ``graph_shards_touched`` delta staying far below the shard count —
  the regime blanket ``invalidate()`` could never reach.

* **Deterministic gate, informational wall clock.**  Every ``wall``
  number varies per machine and is never compared.  The regression
  gate (:func:`check_scale_regression`) compares the perf *counters*
  (bit-identical everywhere) within a tolerance, and the structural
  facts — edge count, component count, occupied shards — exactly: any
  drift there means the engine no longer builds the same graph, which
  is a correctness failure, not a perf regression.

Schema v3 adds two things on top of the engine matrix:

* **Connectivity labels in the workload.**  Each round queries the
  incremental component labels (``component_count`` / ``same_component``)
  so the label layer is active before the fault-churn phase — every
  churn batch must then ride the delta-relabel path
  (``conn_delta_relabels`` in the churn deltas, zero
  ``conn_full_relabels``), which is the whole point of the layer.

* **A full-protocol phase** (n=1k and n=10k; the quick smoke stops at
  1k).  :func:`~repro.experiments.bootstrap.bulk_configure` stands up a
  complete configured network in one batched pass, the network settles,
  then three measured disturbances run against it: an allocation storm
  (staggered entrants through the real COM_REQ/quorum path), a
  partition (an L-shaped moat of nodes crashes, cutting a fixed-size
  corner village off the giant component), and a heal (the moat
  revives).  Each sub-phase reports wall clock plus counter deltas;
  the detect window — after the cut, before any timer-driven probe
  traffic — must show **zero unbounded BFS walks** and **zero full
  relabels**: partition detection rides the O(1) label queries.
  Because the cut village is the same size at every n, the detect and
  heal deltas stay near-constant from 1k to 10k — cost follows the
  component, not the population.

Schema v4 adds an ``attribution`` section to every protocol cell: the
subsystem profiler (:mod:`repro.obs.profile`) rides the run as the
engine's profile hook, charging each fired event's wall clock to the
package that owns its callback and tracing settle-window allocations
with :mod:`tracemalloc`.  The section names the per-subsystem cost
floor of a settled network — which package burns the steady-state
budget at n=10k, in seconds and bytes, not just in counter units.
Like every ``wall`` number it is informational: machine-dependent,
never compared by the gate.

The committed baseline lives at the repo root as ``BENCH_scale.json``
(schema in docs/BENCHMARKS.md, methodology in docs/SCALING.md); CI's
perf-smoke job gates the n=1k cell on every push.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.experiments.bootstrap import bulk_configure, space_bits_for
from repro.geometry import Point, Region
from repro.mobility.base import Stationary
from repro.mobility.waypoint import RandomWaypoint
from repro.net.context import NetworkContext
from repro.net.node import Node
from repro.net.topology import Topology
from repro.obs.profile import SubsystemProfiler
from repro.perf import PerfRecorder
from repro.perf import counters as cnt
from repro.sim.engine import Simulator
from repro.sim.rng import generator_from_seed

SCALE_SCHEMA_VERSION = 4
DEFAULT_SCALE_BASELINE = Path("BENCH_scale.json")
DEFAULT_SCALE_TOLERANCE = 0.25

#: The committed curve measures these sizes; CI's quick smoke stops at 1k.
SCALE_SIZES_FULL = (1000, 10000, 50000)
SCALE_SIZES_QUICK = (1000,)

#: Nodes per square meter.  4e-4 with a 150 m transmission range gives an
#: average degree of about ``density * pi * tr^2`` ~ 28 neighbors — dense
#: enough to stay mostly connected, sparse enough to be a realistic MANET.
DENSITY = 4e-4
TRANSMISSION_RANGE = 150.0

#: Fraction of the population that moves (random waypoint, 20 m/s); the
#: rest is stationary.  One in a hundred keeps per-refresh dirt well under
#: the delta-rebuild threshold, which is the steady state being measured.
MOBILE_FRACTION = 0.01
SPEED_MPS = 20.0

QUERY_HOP_BOUND = 3   # the paper's QDSet scope
REFRESH_INTERVAL = 0.5

#: Workload per round: bounded 3-hop queries from this many sources,
#: plus whole-component floods from a handful of them.
QUERY_SOURCES = 64
FLOOD_SOURCES = 4

#: Timer-churn load per round: this many schedule+cancel pairs, which is
#: what pushes the event heap into its compaction regime at scale.
CHURN_TIMERS = 2000

#: Fault-churn phase: this many nodes crash and restart per churn round.
#: The phase measures the node-scoped invalidation path
#: (:meth:`repro.net.topology.Topology.invalidate_nodes`): each
#: crash/restart batch must be absorbed by a delta rebuild whose
#: ``graph_shards_touched`` delta stays far below the shard count,
#: instead of the full-rebuild cost a blanket ``invalidate()`` forces.
CHURN_NODES = 64
CHURN_FAULT_ROUNDS = 3

#: Same round count in both modes — the quick (n=1k only) smoke must be
#: counter-comparable with the committed full-matrix baseline.
ROUNDS = 5

#: Full-protocol phase sizes.  50k is engine-only: a quarter million
#: live protocol timers is a soak test, not a curve point.
PROTOCOL_SIZES_FULL = (1000, 10000)
PROTOCOL_SIZES_QUICK = (1000,)

#: Allocation storm: this many entrants join the settled network through
#: the real message-level path (COM_REQ -> quorum -> COM_CFG), one
#: every STORM_SPACING_S seconds, placed next to existing nodes so they
#: always have a configured neighborhood to talk to.
STORM_ENTRANTS = 64
STORM_SPACING_S = 0.25
STORM_DRAIN_S = 20.0

#: Settle window after the bulk bootstrap: long enough for audit /
#: merge-watch periodics to reach steady state (they send nothing in a
#: healthy network, so the window ends quiet).
SETTLE_S = 30.0

#: Partition geometry: the corner village [0, MOAT_INNER)^2 is cut off
#: by crashing every node in the L-shaped moat between MOAT_INNER and
#: MOAT_OUTER.  Both are fixed in meters, so at constant density the
#: cut component is the same size at every n — which is exactly what
#: the detect/heal deltas are supposed to demonstrate.  The moat is
#: wider than the 150 m transmission range so no link crosses it.
MOAT_INNER_M = 600.0
MOAT_OUTER_M = 800.0

#: Detect window: shorter than T_d (4 s), so suspicion accrues on every
#: head auditing across the cut but no probe has fired yet — the window
#: isolates pure detection, which must issue zero unbounded BFS walks.
DETECT_WINDOW_S = 3.5

#: Then the protocol reacts (quorum shrinks, probes, reclamation,
#: minority refounds) and, after the moat revives, re-merges.
RECOVER_S = 60.0
HEAL_S = 30.0


def _build_population(n: int, seed: int) -> Tuple[List[Node], float]:
    """A constant-density population; returns (nodes, area side in m)."""
    side = math.sqrt(n / DENSITY)
    region = Region(side, side)
    layout_rng = generator_from_seed(seed)
    mobile_every = max(1, round(1 / MOBILE_FRACTION))
    nodes: List[Node] = []
    for i in range(n):
        start = Point(layout_rng.uniform(0, side), layout_rng.uniform(0, side))
        if i % mobile_every == 0:
            # Each walker gets a private stream keyed by (seed, id) so the
            # curve is reproducible regardless of query order.
            walker_rng = generator_from_seed(seed * 1_000_003 + i)
            mobility: Any = RandomWaypoint(region, start, SPEED_MPS, walker_rng)
        else:
            mobility = Stationary(start)
        nodes.append(Node(i, mobility))
    return nodes, side


def _run_size(n: int, *, seed: int, rounds: int) -> Dict[str, Any]:
    """Measure one population size; returns the per-size payload cell."""
    sim = Simulator(seed=seed)
    perf = PerfRecorder()
    topo = Topology(sim, transmission_range=TRANSMISSION_RANGE,
                    refresh_interval=REFRESH_INTERVAL, perf=perf)
    nodes, side = _build_population(n, seed)
    for node in nodes:
        topo.add_node(node)
    ids = [node.node_id for node in nodes]
    sources = ids[:: max(1, n // QUERY_SOURCES)][:QUERY_SOURCES]
    flood_sources = sources[:: max(1, len(sources) // FLOOD_SOURCES)]
    flood_sources = flood_sources[:FLOOD_SOURCES]

    start = time.perf_counter()
    topo.neighbors(ids[0])  # forces the initial full build
    build_s = time.perf_counter() - start

    refresh_s = 0.0
    query_s = 0.0
    flood_s = 0.0
    label_s = 0.0
    for round_no in range(rounds):
        # Advance past the refresh interval so the next query triggers an
        # incremental (delta) refresh of the moved shards.
        sim.run(until=sim.now + REFRESH_INTERVAL * 1.01)
        start = time.perf_counter()
        topo.neighbors(ids[0])
        refresh_s += time.perf_counter() - start

        start = time.perf_counter()
        topo.warm_bfs(sources, max_hops=QUERY_HOP_BOUND)
        for nid in sources:
            topo.within_hops(nid, QUERY_HOP_BOUND)
        query_s += time.perf_counter() - start

        start = time.perf_counter()
        for nid in flood_sources:
            topo.reachable(nid, max_hops=None)
        flood_s += time.perf_counter() - start

        # Connectivity-label queries: the first round activates the
        # incremental labels (one full relabel), after which every
        # rebuild — including the fault-churn batches below — must
        # maintain them on the delta path.
        start = time.perf_counter()
        topo.component_count()
        topo.same_component(ids[0], ids[-1])
        label_s += time.perf_counter() - start

        # Timer churn: restart-style schedule+cancel pairs, the pattern
        # protocol timers produce, to exercise heap compaction at scale.
        for i in range(CHURN_TIMERS):
            handle = sim.schedule(100.0 + i, lambda: None)
            sim.cancel(handle)

    # Fault-churn phase: crash a slice of the population, rebuild, then
    # restart it and rebuild again, per round.  Simulated time does not
    # advance, so every counter delta below is attributable to the
    # churn alone — mobility contributes nothing.  The graph ends each
    # round exactly where it started (everyone restarts in place),
    # keeping the structural facts below churn-independent.
    #
    # The churned slice is a localized outage — the stationary nodes
    # nearest the area center — because that is the case node-scoped
    # invalidation exists for: the dirty set maps to a handful of grid
    # shards, so the ``graph_shards_touched`` delta stays far below the
    # shard count no matter how large the population grows.
    center = side / 2.0
    churn_targets = sorted(
        (node for node in nodes if node.mobility.speed() == 0.0),
        key=lambda node: (
            (node.mobility.position(0.0).x - center) ** 2
            + (node.mobility.position(0.0).y - center) ** 2,
            node.node_id,
        ))[:CHURN_NODES]
    churn_before = perf.counters_snapshot()
    churn_s = 0.0
    for _ in range(CHURN_FAULT_ROUNDS):
        start = time.perf_counter()
        for node in churn_targets:
            node.kill()
        topo.invalidate_nodes(node.node_id for node in churn_targets)
        topo.neighbors(ids[0])
        for node in churn_targets:
            node.alive = True
        topo.invalidate_nodes(node.node_id for node in churn_targets)
        topo.neighbors(ids[0])
        churn_s += time.perf_counter() - start
    churn_after = perf.counters_snapshot()
    churn_delta = {
        name: churn_after.get(name, 0) - churn_before.get(name, 0)
        for name in sorted(churn_after)
        if churn_after.get(name, 0) != churn_before.get(name, 0)
    }

    components = topo.components()
    cell: Dict[str, Any] = {
        "n": n,
        "area_side_m": side,
        "rounds": rounds,
        "wall": {
            "build_s": build_s,
            "refresh_s_mean": refresh_s / rounds,
            "query_s_mean": query_s / rounds,
            "flood_s_mean": flood_s / rounds,
            "label_s_mean": label_s / rounds,
        },
        "graph": {
            "edges": topo.edge_count(),
            "components": len(components),
            "components_label": topo.component_count(),
            "largest_component": max(len(c) for c in components),
            "shards": topo.shard_count,
        },
        "heap": {
            "compactions": sim.compactions,
            "final_size": sim.heap_size,
            "final_pending": sim.pending_events,
        },
        "churn": {
            "rounds": CHURN_FAULT_ROUNDS,
            "nodes_per_round": len(churn_targets),
            "wall": {"round_s_mean": churn_s / CHURN_FAULT_ROUNDS},
            "counters_delta": churn_delta,
        },
        "counters": perf.counters_snapshot(),
    }
    return cell


def _counters_union(ctx: NetworkContext) -> Dict[str, int]:
    """Perf counters plus protocol event tallies, one flat snapshot.

    The name spaces are disjoint by construction (perf counters are
    ``graph_*``/``bfs_*``/``conn_*``-style engine tallies, event
    counters are ``quorum_*``/``reclaim_*``-style protocol tallies), so
    a flat merge keeps sub-phase deltas in one dict.
    """
    merged = dict(ctx.perf.counters_snapshot())
    merged.update(ctx.events.snapshot())
    return merged


def _run_protocol_size(n: int, *, seed: int) -> Dict[str, Any]:
    """Measure one full-protocol population; returns the payload cell."""
    ctx = NetworkContext.build(seed=seed,
                               transmission_range=TRANSMISSION_RANGE)
    sim, topo = ctx.sim, ctx.topology
    # A stationary population has no movement to track: the paper's
    # upon-leave location scheme (Section IV-C-1) drops the per-common
    # periodic location timer.  (Its re-anchoring path asks hello for
    # the nearest head anywhere in the component; that search stops at
    # the first head's level and no longer counts as a flood.)
    cfg = ProtocolConfig(address_space_bits=space_bits_for(n),
                         location_update_mode="upon_leave")
    side = math.sqrt(n / DENSITY)
    layout_rng = generator_from_seed(seed)
    nodes = [
        Node(i, Stationary(Point(layout_rng.uniform(0, side),
                                 layout_rng.uniform(0, side))))
        for i in range(n)
    ]

    # The subsystem profiler rides the whole run as the engine's
    # profile hook: every fired event is charged to the package owning
    # its callback.  Event order and counters are untouched — only the
    # wall numbers (informational, never gated) absorb its overhead.
    profiler = SubsystemProfiler().install(sim)

    start = time.perf_counter()
    with profiler.phase("bootstrap"):
        setup = bulk_configure(ctx, cfg, nodes)
    bootstrap_s = time.perf_counter() - start
    # Activate the connectivity labels up front: every rebuild from here
    # on (entrant adds, the moat cut, the heal) must ride the delta
    # path, and every partition-detection query must be a label hit.
    topo.component_count()
    # The settle window is the steady-state floor being attributed:
    # memory tracing brackets exactly this window, so the per-package
    # byte totals are what a healthy settled network accretes.
    profiler.start_memory()
    with profiler.phase("settle"):
        sim.run(until=SETTLE_S)
    settle_memory = profiler.memory_by_package()
    profiler.stop_memory()

    phases: Dict[str, Dict[str, Any]] = {}

    def run_phase(name: str, fn: Any) -> None:
        before = _counters_union(ctx)
        start = time.perf_counter()
        with profiler.phase(name):
            fn()
        wall = time.perf_counter() - start
        after = _counters_union(ctx)
        phases[name] = {
            "wall_s": wall,
            "counters_delta": {
                key: after[key] - before.get(key, 0)
                for key in sorted(after)
                if after[key] != before.get(key, 0)
            },
        }

    # --- allocation storm -------------------------------------------
    entrants: List[Any] = []

    def storm() -> None:
        from repro.core.protocol import QuorumProtocolAgent
        for k in range(STORM_ENTRANTS):
            # Entrants appear next to cluster heads (spread round-robin
            # over the whole network): a joining node camps where
            # coverage is, and the storm must exercise the allocation
            # machinery, not the no-head-in-hello-scope corner case.
            anchor_id = setup.heads[(k * 7) % len(setup.heads)]
            anchor = topo.get(anchor_id).position(sim.now)
            pos = Point(anchor.x + layout_rng.uniform(-100.0, 100.0),
                        anchor.y + layout_rng.uniform(-100.0, 100.0))
            node = Node(n + k, Stationary(pos))
            topo.add_node(node)
            agent = QuorumProtocolAgent(ctx, node, cfg)
            entrants.append(agent)
            sim.schedule(STORM_SPACING_S * (k + 1), agent.on_enter)
        sim.run(until=sim.now + STORM_SPACING_S * STORM_ENTRANTS
                + STORM_DRAIN_S)

    run_phase("storm", storm)
    phases["storm"]["entrants"] = STORM_ENTRANTS
    phases["storm"]["configured"] = sum(
        1 for agent in entrants if agent.is_configured())

    # --- partition: crash the moat, watch detection ride the labels --
    def in_square(node: Node, bound: float) -> bool:
        p = node.position(0.0)
        return p.x < bound and p.y < bound

    everyone = nodes + [agent.node for agent in entrants]
    corner = [node for node in everyone if in_square(node, MOAT_INNER_M)]
    moat = [node for node in everyone
            if in_square(node, MOAT_OUTER_M)
            and not in_square(node, MOAT_INNER_M)]

    def cut() -> None:
        for node in moat:
            node.kill()
        topo.invalidate_nodes(node.node_id for node in moat)
        sim.run(until=sim.now + DETECT_WINDOW_S)

    run_phase("detect", cut)
    phases["detect"]["window_s"] = DETECT_WINDOW_S
    phases["detect"]["moat_nodes"] = len(moat)
    phases["detect"]["corner_nodes"] = len(corner)
    phases["detect"]["corner_component"] = (
        topo.component_size(corner[0].node_id) if corner else 0)

    run_phase("recover", lambda: sim.run(until=sim.now + RECOVER_S))

    # --- heal: the moat comes back, the network re-merges ------------
    def heal() -> None:
        for node in moat:
            node.alive = True
        topo.invalidate_nodes(node.node_id for node in moat)
        sim.run(until=sim.now + HEAL_S)

    run_phase("heal", heal)

    profiler.uninstall()
    attribution = profiler.report()
    attribution["settle_memory_bytes"] = settle_memory

    agents = setup.agents + entrants
    alive = [agent for agent in agents
             if agent.node.alive and agent.is_configured()]
    bound = [(agent.network_id, agent.ip) for agent in alive]
    return {
        "n": n,
        "area_side_m": side,
        "heads": len(setup.heads),
        "spilled": setup.spilled,
        "bootstrap": {
            "wall_s": bootstrap_s,
            "agents_per_s": n / bootstrap_s if bootstrap_s else 0.0,
        },
        "phases": phases,
        "final": {
            "configured": len(alive),
            "networks": len({net for net, _ in bound}),
            "addresses_unique": len(set(bound)) == len(bound),
            "components": topo.component_count(),
        },
        "heap": {
            "compactions": sim.compactions,
            "final_size": sim.heap_size,
            "final_pending": sim.pending_events,
        },
        # Wall-clock/byte attribution per subsystem (repro.obs.profile).
        # Machine-dependent and informational: check_scale_regression
        # iterates named sections and never reads this one.
        "attribution": attribution,
        "counters": _counters_union(ctx),
    }


def run_scale(quick: bool = False, seed: int = 11) -> Dict[str, Any]:
    """Run the scale matrix and return the ``BENCH_scale.json`` payload."""
    sizes = SCALE_SIZES_QUICK if quick else SCALE_SIZES_FULL
    protocol_sizes = PROTOCOL_SIZES_QUICK if quick else PROTOCOL_SIZES_FULL
    rounds = ROUNDS
    return {
        "schema": SCALE_SCHEMA_VERSION,
        "quick": quick,
        "seed": seed,
        "density_per_m2": DENSITY,
        "transmission_range_m": TRANSMISSION_RANGE,
        "mobile_fraction": MOBILE_FRACTION,
        "sizes": {str(n): _run_size(n, seed=seed, rounds=rounds)
                  for n in sizes},
        "protocol": {str(n): _run_protocol_size(n, seed=seed)
                     for n in protocol_sizes},
    }


def check_scale_regression(
    payload: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_SCALE_TOLERANCE,
) -> List[str]:
    """Gate a scale run against the committed baseline.

    Only sizes present in *both* payloads are compared (CI's quick run
    covers n=1k of a 1k/10k/50k baseline).  Structural graph facts must
    match exactly — same seed, same engine, same graph — while perf
    counters (including the fault-churn deltas) may grow up to
    ``tolerance``; dropping below baseline is an improvement, never a
    failure.  Wall clock is never compared.

    Two invariants of the run itself (not comparisons) also gate here:
    the engine churn phase must stay on the delta-relabel path (zero
    ``conn_full_relabels``), and the protocol detect window must issue
    zero unbounded BFS walks and zero full relabels — partition
    detection rides the connectivity labels or the gate fails.
    """
    failures: List[str] = []
    failures.extend(_check_run_invariants(payload))
    for size, base_cell in baseline.get("sizes", {}).items():
        cell = payload.get("sizes", {}).get(size)
        if cell is None:
            continue  # the run measured fewer sizes (quick smoke)
        if cell.get("rounds") != base_cell.get("rounds"):
            failures.append(
                f"n={size}: rounds differ "
                f"({base_cell.get('rounds')} vs {cell.get('rounds')}); "
                "counters are not comparable")
            continue
        for fact, base_value in base_cell.get("graph", {}).items():
            value = cell.get("graph", {}).get(fact)
            if value != base_value:
                failures.append(
                    f"n={size}: graph {fact} changed "
                    f"{base_value} -> {value} (must be bit-identical)")
        for counter, base_value in base_cell.get("counters", {}).items():
            value = cell.get("counters", {}).get(counter, 0)
            if base_value > 0 and value > base_value * (1 + tolerance):
                failures.append(
                    f"n={size}: {counter} regressed {base_value} -> {value} "
                    f"(+{(value / base_value - 1):.0%}, "
                    f"budget +{tolerance:.0%})")
        base_churn = base_cell.get("churn", {})
        churn = cell.get("churn", {})
        if base_churn:
            for fact in ("rounds", "nodes_per_round"):
                if churn.get(fact) != base_churn.get(fact):
                    failures.append(
                        f"n={size}: churn {fact} differ "
                        f"({base_churn.get(fact)} vs {churn.get(fact)}); "
                        "churn deltas are not comparable")
                    break
            else:
                for counter, base_value in base_churn.get(
                        "counters_delta", {}).items():
                    value = churn.get("counters_delta", {}).get(counter, 0)
                    if base_value > 0 and value > base_value * (1 + tolerance):
                        failures.append(
                            f"n={size}: churn {counter} regressed "
                            f"{base_value} -> {value} "
                            f"(+{(value / base_value - 1):.0%}, "
                            f"budget +{tolerance:.0%})")
        base_heap = base_cell.get("heap", {})
        heap = cell.get("heap", {})
        for fact, base_value in base_heap.items():
            value = heap.get(fact, 0)
            if base_value > 0 and value > base_value * (1 + tolerance):
                failures.append(
                    f"n={size}: heap {fact} regressed "
                    f"{base_value} -> {value} (amortization budget "
                    f"+{tolerance:.0%})")
    for size, base_cell in baseline.get("protocol", {}).items():
        cell = payload.get("protocol", {}).get(size)
        if cell is None:
            continue
        for fact in ("heads", "spilled"):
            if cell.get(fact) != base_cell.get(fact):
                failures.append(
                    f"protocol n={size}: {fact} changed "
                    f"{base_cell.get(fact)} -> {cell.get(fact)} "
                    "(must be bit-identical)")
        for fact, base_value in base_cell.get("final", {}).items():
            if cell.get("final", {}).get(fact) != base_value:
                failures.append(
                    f"protocol n={size}: final {fact} changed "
                    f"{base_value} -> {cell.get('final', {}).get(fact)} "
                    "(must be bit-identical)")
        for phase, base_phase in base_cell.get("phases", {}).items():
            deltas = (cell.get("phases", {}).get(phase, {})
                      .get("counters_delta", {}))
            for counter, base_value in base_phase.get(
                    "counters_delta", {}).items():
                value = deltas.get(counter, 0)
                if base_value > 0 and value > base_value * (1 + tolerance):
                    failures.append(
                        f"protocol n={size}: {phase} {counter} regressed "
                        f"{base_value} -> {value} "
                        f"(+{(value / base_value - 1):.0%}, "
                        f"budget +{tolerance:.0%})")
    return failures


def _check_run_invariants(payload: Dict[str, Any]) -> List[str]:
    """Baseline-independent invariants every scale run must satisfy."""
    failures: List[str] = []
    for size, cell in payload.get("sizes", {}).items():
        churn_delta = cell.get("churn", {}).get("counters_delta", {})
        if churn_delta.get(cnt.CONN_FULL_RELABELS, 0):
            failures.append(
                f"n={size}: fault churn fell off the delta-relabel path "
                f"({churn_delta[cnt.CONN_FULL_RELABELS]} full relabels)")
    for size, cell in payload.get("protocol", {}).items():
        detect = cell.get("phases", {}).get("detect", {})
        delta = detect.get("counters_delta", {})
        for counter in (cnt.BFS_UNBOUNDED, cnt.CONN_FULL_RELABELS):
            if delta.get(counter, 0):
                failures.append(
                    f"protocol n={size}: detect window issued "
                    f"{delta[counter]} {counter} — partition detection "
                    "must ride the connectivity labels")
        if not cell.get("final", {}).get("addresses_unique", True):
            failures.append(
                f"protocol n={size}: duplicate addresses after heal")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``repro bench --scale`` delegates here)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench --scale",
        description="n-scaling curve (1k/10k/50k) -> BENCH_scale.json")
    parser.add_argument("--quick", action="store_true",
                        help="n=1k only (CI scale smoke)")
    parser.add_argument("--out", default=str(DEFAULT_SCALE_BASELINE),
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="fail if counters/structure regress vs --baseline")
    parser.add_argument("--baseline", default=str(DEFAULT_SCALE_BASELINE),
                        help="baseline JSON for --check (default: %(default)s)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_SCALE_TOLERANCE,
                        help="allowed counter growth (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=11,
                        help="population seed (default: %(default)s)")
    args = parser.parse_args(argv)

    payload = run_scale(quick=args.quick, seed=args.seed)
    out_path = Path(args.out)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for size, cell in payload["sizes"].items():
        wall = cell["wall"]
        graph = cell["graph"]
        print(f"n={size:>6}  build {wall['build_s'] * 1e3:9.1f} ms"
              f"  refresh {wall['refresh_s_mean'] * 1e3:8.2f} ms"
              f"  3-hop x{QUERY_SOURCES} {wall['query_s_mean'] * 1e3:8.2f} ms"
              f"  edges={graph['edges']}"
              f"  shards={graph['shards']}")
    for size, cell in payload.get("protocol", {}).items():
        detect = cell["phases"]["detect"]["counters_delta"]
        print(f"protocol n={size:>6}"
              f"  bootstrap {cell['bootstrap']['wall_s'] * 1e3:9.1f} ms"
              f"  storm {cell['phases']['storm']['configured']}"
              f"/{cell['phases']['storm']['entrants']} configured"
              f"  detect unbounded-bfs={detect.get(cnt.BFS_UNBOUNDED, 0)}"
              f"  label-hits={detect.get(cnt.CONN_LABEL_HITS, 0)}"
              f"  networks={cell['final']['networks']}")
    print(f"wrote {out_path}")

    if args.check:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"baseline {baseline_path} not found")
            return 2
        baseline = json.loads(baseline_path.read_text())
        failures = check_scale_regression(payload, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}")
            return 1
        print(f"scale check OK (budget +{args.tolerance:.0%} "
              f"vs {baseline_path})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
