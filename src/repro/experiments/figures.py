"""Per-figure experiment definitions (Section VI).

Each ``figNN_*`` function runs the sweep behind one figure of the paper
and returns ``{"title", "xlabel", "ylabel", "x", "series"}`` where
``series`` maps a curve label to y-values aligned with ``x``.  Values
are averaged over ``seeds``.  The defaults are sized to finish quickly;
the benchmarks pass the paper's full parameter ranges.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import ProtocolConfig
from repro.experiments.builder import paper_scenario
from repro.experiments.metrics import RunResult
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import sweep_over_seeds
from repro.faults import FaultSpec, crash_schedule

DEFAULT_SIZES = (50, 100, 150, 200)
DEFAULT_RANGES = (100.0, 150.0, 200.0, 250.0)


def quorum_cfg(**overrides: Any) -> ProtocolConfig:
    """The quorum protocol tuned for figure runs.

    Merge detection is off by default here because the sweep scenarios
    cannot partition (single connected arrival area) — it only burns
    simulation time.  Partition-specific tests turn it back on.
    """
    overrides.setdefault("merge_detection_enabled", False)
    return ProtocolConfig(**overrides)


def _sweep_over_seeds(
    make_scenario: Callable[[int], Scenario],
    protocol: str,
    metric: Callable[[RunResult], float],
    seeds: Sequence[int],
    protocol_config: Optional[Any] = None,
) -> Tuple[float, float]:
    """(mean, sample std) of ``metric`` over per-seed runs.

    Runs route through :func:`repro.experiments.sweep.sweep_over_seeds`,
    i.e. the process-wide default executor: serial and uncached unless
    ``REPRO_SWEEP_WORKERS`` / ``REPRO_SWEEP_CACHE`` (or
    ``sweep.set_default_executor``) say otherwise.  Per-run seeding
    makes the parallel path bit-identical to the serial one.
    """
    results = sweep_over_seeds(make_scenario, protocol, seeds, protocol_config)
    values = [metric(result) for result in results]
    mean = statistics.mean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def _result(title: str, xlabel: str, ylabel: str, x: Iterable[Any],
            series: Dict[str, List[float]],
            stds: Optional[Dict[str, List[float]]] = None) -> Dict[str, Any]:
    result = {
        "title": title, "xlabel": xlabel, "ylabel": ylabel,
        "x": list(x), "series": series,
    }
    if stds is not None:
        result["series_std"] = stds
    return result


class _SeriesBuilder:
    """Accumulates (mean, std) points per labelled curve."""

    def __init__(self) -> None:
        self.series: Dict[str, List[float]] = {}
        self.stds: Dict[str, List[float]] = {}

    def add(self, label: str,
            make_scenario: Callable[[int], Scenario],
            protocol: str,
            metric: Callable[[RunResult], float],
            seeds: Sequence[int],
            protocol_config: Optional[Any] = None) -> None:
        mean, std = _sweep_over_seeds(
            make_scenario, protocol, metric, seeds, protocol_config)
        self.series.setdefault(label, []).append(mean)
        self.stds.setdefault(label, []).append(std)

    def constant(self, label: str, value: float) -> None:
        self.series.setdefault(label, []).append(value)
        self.stds.setdefault(label, []).append(0.0)


# ---------------------------------------------------------------------------
# Fig. 4 — example network layout
# ---------------------------------------------------------------------------
def fig04_layout(num_nodes: int = 100, seed: int = 1,
                 transmission_range: float = 150.0) -> Dict[str, Any]:
    """A randomly generated layout: positions plus resulting roles."""
    # Fig. 4 shows a uniformly random layout, so arrivals here are not
    # connectivity-biased (at nn = 100, tr = 150 m the uniform network
    # is dense enough to be essentially one component anyway).
    scenario = paper_scenario(
        num_nodes=num_nodes, seed=seed, speed_mps=0.0, settle_time=10.0,
        transmission_range=transmission_range,
        connected_arrivals=False,
    )
    runner = ScenarioRunner(scenario, "quorum", quorum_cfg())
    result = runner.run()
    assert runner.ctx is not None
    nodes = []
    now = runner.ctx.sim.now
    for outcome in result.outcomes:
        node = runner.ctx.node_of(outcome.node_id)
        if node is None or not node.alive:
            continue
        position = node.position(now)
        role = "head" if outcome.is_head else (
            "common" if outcome.configured else "unconfigured")
        nodes.append({
            "id": outcome.node_id, "x": position.x, "y": position.y,
            "role": role, "ip": outcome.ip,
        })
    return {
        "title": "Fig. 4 — random layout",
        "area": scenario.area,
        "transmission_range": transmission_range,
        "nodes": nodes,
        "head_count": result.head_count,
        "configured": result.configured_count(),
    }


# ---------------------------------------------------------------------------
# Figs. 5-7 — configuration latency
# ---------------------------------------------------------------------------
def fig05_latency_vs_size(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Sequence[int] = (1,),
    transmission_range: float = 150.0,
) -> Dict[str, Any]:
    """Config latency (hops) vs network size: quorum vs MANETconf."""
    def scenario_for(n: int) -> Callable[[int], Scenario]:
        return lambda seed: paper_scenario(
            num_nodes=n, seed=seed, transmission_range=transmission_range,
            settle_time=10.0,
        )

    metric = RunResult.avg_config_latency_hops
    series: Dict[str, List[float]] = {"quorum": [], "manetconf": []}
    stds: Dict[str, List[float]] = {"quorum": [], "manetconf": []}
    for n in sizes:
        for protocol, config in (("quorum", quorum_cfg()),
                                 ("manetconf", None)):
            mean, std = _sweep_over_seeds(
                scenario_for(n), protocol, metric, seeds, config)
            series[protocol].append(mean)
            stds[protocol].append(std)
    result = _result("Fig. 5 — configuration latency vs network size",
                     "nodes", "latency (hops)", sizes, series)
    result["series_std"] = stds
    return result


def fig06_latency_vs_range(
    ranges: Sequence[float] = DEFAULT_RANGES,
    num_nodes: int = 100,
    seeds: Sequence[int] = (1,),
) -> Dict[str, Any]:
    """Config latency vs transmission range: quorum vs MANETconf."""
    def scenario_for(tr: float) -> Callable[[int], Scenario]:
        return lambda seed: paper_scenario(
            num_nodes=num_nodes, seed=seed, transmission_range=tr,
            settle_time=10.0,
        )

    metric = RunResult.avg_config_latency_hops
    builder = _SeriesBuilder()
    for tr in ranges:
        builder.add("quorum", scenario_for(tr), "quorum", metric, seeds,
                    quorum_cfg())
        builder.add("manetconf", scenario_for(tr), "manetconf", metric, seeds)
    return _result("Fig. 6 — configuration latency vs transmission range",
                   "tr (m)", "latency (hops)", ranges,
                   builder.series, builder.stds)


def fig07_latency_grid(
    ranges: Sequence[float] = DEFAULT_RANGES,
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Sequence[int] = (1,),
) -> Dict[str, Any]:
    """Quorum config latency over the tr x nn grid (ours only)."""
    builder = _SeriesBuilder()
    metric = RunResult.avg_config_latency_hops
    for tr in ranges:
        label = f"tr={tr:g}"
        for n in sizes:
            builder.add(
                label,
                lambda seed, n=n, tr=tr: paper_scenario(
                    num_nodes=n, seed=seed, transmission_range=tr,
                    settle_time=10.0),
                "quorum", metric, seeds, quorum_cfg())
    return _result("Fig. 7 — quorum latency over tr x nn",
                   "nodes", "latency (hops)", sizes,
                   builder.series, builder.stds)


# ---------------------------------------------------------------------------
# Figs. 8-9 — configuration & departure message overhead vs Buddy [2]
# ---------------------------------------------------------------------------
def fig08_config_overhead(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Sequence[int] = (1,),
) -> Dict[str, Any]:
    """Configuration message hops per node: quorum vs Buddy.

    Includes state-upkeep traffic (the Buddy scheme's periodic global
    table synchronization; our replica distribution), per Section VI-C.
    """
    def scenario_for(n: int) -> Callable[[int], Scenario]:
        return lambda seed: paper_scenario(
            num_nodes=n, seed=seed, settle_time=20.0)

    def metric(result: RunResult) -> float:
        return result.config_overhead_per_node(include_maintenance=True)

    builder = _SeriesBuilder()
    for n in sizes:
        builder.add("quorum", scenario_for(n), "quorum", metric, seeds,
                    quorum_cfg())
        builder.add("buddy", scenario_for(n), "buddy", metric, seeds)
    return _result("Fig. 8 — configuration overhead vs network size",
                   "nodes", "hops per configured node", sizes,
                   builder.series, builder.stds)


def fig09_departure_overhead(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Sequence[int] = (1,),
    depart_fraction: float = 0.5,
) -> Dict[str, Any]:
    """Departure message hops per graceful departure: quorum vs Buddy."""
    def scenario_for(n: int) -> Callable[[int], Scenario]:
        return lambda seed: paper_scenario(
            num_nodes=n, seed=seed, depart_fraction=depart_fraction,
            abrupt_probability=0.0, depart_window=60.0, settle_time=20.0)

    def metric(result: RunResult) -> float:
        upkeep = result.stats_hops.get("maintenance", 0)
        departures = max(1, result.graceful_departures)
        return result.departure_overhead_per_departure() + upkeep / departures

    builder = _SeriesBuilder()
    for n in sizes:
        builder.add("quorum", scenario_for(n), "quorum", metric, seeds,
                    quorum_cfg())
        builder.add("buddy", scenario_for(n), "buddy", metric, seeds)
    return _result("Fig. 9 — departure overhead vs network size",
                   "nodes", "hops per departure", sizes,
                   builder.series, builder.stds)


# ---------------------------------------------------------------------------
# Figs. 10-11 — maintenance & movement overhead vs C-tree [3]
# ---------------------------------------------------------------------------
def fig10_maintenance_overhead(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Sequence[int] = (1,),
    speed: float = 20.0,
    depart_fraction: float = 0.3,
) -> Dict[str, Any]:
    """Movement + departure + upkeep hops per node at 20 m/s.

    Three curves, as in the paper: ours with periodic location update,
    ours with upon-leave update only, and the C-tree scheme.
    """
    def scenario_for(n: int) -> Callable[[int], Scenario]:
        return lambda seed: paper_scenario(
            num_nodes=n, seed=seed, speed_mps=speed,
            depart_fraction=depart_fraction, depart_window=60.0,
            settle_time=30.0)

    def quorum_metric(result: RunResult) -> float:
        # The paper's Fig. 10 counts location-update and departure
        # traffic; our replica upkeep is configuration-state cost and
        # is accounted in Fig. 8 instead.
        hops = (result.stats_hops.get("movement", 0)
                + result.stats_hops.get("departure", 0))
        return hops / max(1, result.num_nodes)

    # For [3] the periodic C-root reports ARE the maintenance traffic.
    ctree_metric = RunResult.maintenance_overhead

    builder = _SeriesBuilder()
    for n in sizes:
        builder.add("quorum/periodic", scenario_for(n), "quorum",
                    quorum_metric, seeds,
                    quorum_cfg(location_update_mode="periodic"))
        builder.add("quorum/upon-leave", scenario_for(n), "quorum",
                    quorum_metric, seeds,
                    quorum_cfg(location_update_mode="upon_leave"))
        builder.add("ctree", scenario_for(n), "ctree", ctree_metric, seeds)
    return _result("Fig. 10 — maintenance overhead vs network size",
                   "nodes", "hops per node", sizes,
                   builder.series, builder.stds)


def fig11_movement_vs_speed(
    speeds: Sequence[float] = (5.0, 10.0, 20.0, 30.0, 40.0),
    num_nodes: int = 150,
    seeds: Sequence[int] = (1,),
) -> Dict[str, Any]:
    """Location-update hops per node vs node speed (nn = 150)."""
    def scenario_for(speed: float) -> Callable[[int], Scenario]:
        return lambda seed: paper_scenario(
            num_nodes=num_nodes, seed=seed, speed_mps=speed,
            settle_time=60.0)

    metric = RunResult.movement_overhead_per_node
    builder = _SeriesBuilder()
    for speed in speeds:
        builder.add("quorum/periodic", scenario_for(speed), "quorum",
                    metric, seeds,
                    quorum_cfg(location_update_mode="periodic"))
        builder.add("quorum/upon-leave", scenario_for(speed), "quorum",
                    metric, seeds,
                    quorum_cfg(location_update_mode="upon_leave"))
    return _result("Fig. 11 — movement overhead vs speed (nn=150)",
                   "speed (m/s)", "hops per node", speeds,
                   builder.series, builder.stds)


# ---------------------------------------------------------------------------
# Fig. 12 — IP space extension through partial replication
# ---------------------------------------------------------------------------
def fig12_ip_space_extension(
    ranges: Sequence[float] = DEFAULT_RANGES,
    sizes: Sequence[int] = (100, 200),
    seeds: Sequence[int] = (1,),
) -> Dict[str, Any]:
    """(IPSpace + QuorumSpace) / IPSpace per cluster head, vs tr and nn.

    The C-tree scheme keeps no replicas, so its ratio is identically 1;
    the paper reports our extension reaching ~5.5x as tr grows.
    """
    metric = RunResult.avg_extension_ratio
    builder = _SeriesBuilder()
    for n in sizes:
        label = f"quorum nn={n}"
        for tr in ranges:
            builder.add(
                label,
                lambda seed, n=n, tr=tr: paper_scenario(
                    num_nodes=n, seed=seed, transmission_range=tr,
                    settle_time=20.0),
                "quorum", metric, seeds, quorum_cfg())
    for _tr in ranges:
        builder.constant("ctree (no replication)", 1.0)
    return _result("Fig. 12 — IP space extension vs transmission range",
                   "tr (m)", "(IPSpace+QuorumSpace)/IPSpace", ranges,
                   builder.series, builder.stds)


# ---------------------------------------------------------------------------
# Fig. 13 — information loss under abrupt departures
# ---------------------------------------------------------------------------
def fig13_information_loss(
    abrupt_ratios: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5),
    num_nodes: int = 100,
    seeds: Sequence[int] = (1, 2),
    depart_fraction: float = 0.4,
) -> Dict[str, Any]:
    """% of departed allocators whose IP state information was lost.

    Section VI-A: nodes "are randomly chosen to depart gracefully or
    abruptly; the probability of abrupt departure varies between
    5 % - 50 %" — the x-axis.  A fixed fraction of nodes departs within
    a narrow window (the Section VI-D-2 simultaneous-leave stress);
    each departure is abrupt with probability x.  Fully tethered
    arrivals keep this a single network, so the C-tree curve reflects
    root and unreported-allocation loss rather than fragment roots.
    """
    def scenario_for(ratio: float) -> Callable[[int], Scenario]:
        return lambda seed: paper_scenario(
            num_nodes=num_nodes, seed=seed,
            depart_fraction=depart_fraction, abrupt_probability=ratio,
            depart_window=5.0, settle_time=30.0,
            uniform_arrival_fraction=0.0)

    metric = RunResult.information_loss_pct
    series: Dict[str, List[float]] = {"quorum": [], "ctree": []}
    stds: Dict[str, List[float]] = {"quorum": [], "ctree": []}
    for ratio in abrupt_ratios:
        for protocol, config in (("quorum", quorum_cfg()), ("ctree", None)):
            mean, std = _sweep_over_seeds(
                scenario_for(ratio), protocol, metric, seeds, config)
            series[protocol].append(mean)
            stds[protocol].append(std)
    result = _result("Fig. 13 — IP state information loss vs abrupt ratio",
                     "abrupt ratio", "% information lost", abrupt_ratios,
                     series)
    result["series_std"] = stds
    return result


# ---------------------------------------------------------------------------
# Fig. 14 — address reclamation overhead
# ---------------------------------------------------------------------------
def fig14_reclamation_overhead(
    sizes: Sequence[int] = DEFAULT_SIZES,
    seeds: Sequence[int] = (1,),
    depart_fraction: float = 0.4,
    abrupt_probability: float = 0.5,
) -> Dict[str, Any]:
    """Reclamation message hops per abrupt departure: quorum vs C-tree."""
    def scenario_for(n: int) -> Callable[[int], Scenario]:
        return lambda seed: paper_scenario(
            num_nodes=n, seed=seed, depart_fraction=depart_fraction,
            abrupt_probability=abrupt_probability, depart_window=60.0,
            settle_time=60.0)

    metric = RunResult.reclamation_overhead
    builder = _SeriesBuilder()
    for n in sizes:
        builder.add("quorum", scenario_for(n), "quorum", metric, seeds,
                    quorum_cfg())
        builder.add("ctree", scenario_for(n), "ctree", metric, seeds)
    return _result("Fig. 14 — reclamation overhead vs network size",
                   "nodes", "hops per abrupt departure", sizes,
                   builder.series, builder.stds)


# ---------------------------------------------------------------------------
# Robustness — protocol behavior under injected faults (beyond the paper)
# ---------------------------------------------------------------------------
def robustness_vs_loss(
    loss_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    num_nodes: int = 60,
    seeds: Sequence[int] = (1, 2),
    depart_fraction: float = 0.3,
    abrupt_probability: float = 0.5,
    crash_fraction: float = 0.1,
) -> Dict[str, Any]:
    """Address conflicts and quorum self-repair vs per-hop loss rate.

    The paper evaluates over a reliable transport; this experiment
    drives the quorum protocol and two baselines (MANETconf, DAD)
    through the fault layer instead: every hop drops with probability
    x, a tenth of the nodes fail-stutter crash mid-run (down 30 s, the
    ``T_d``/``T_r`` stress), and the Fig. 13 abrupt-departure mix runs
    on top.  Plotted per x: surviving address conflicts
    (``duplicate_addresses``) for all three protocols, plus the quorum
    protocol's adjustment (QDSet shrink/probe) and reclamation event
    counts — the self-repair machinery Section V-B predicts should
    engage as conditions degrade.
    """
    def scenario_for(loss: float) -> Callable[[int], Scenario]:
        def make(seed: int) -> Scenario:
            faults = FaultSpec(
                loss_rate=loss,
                crashes=crash_schedule(
                    num_nodes, crash_fraction,
                    at=float(num_nodes) + 10.0,  # after the last arrival
                    window=20.0, downtime=30.0, seed=seed),
            )
            return paper_scenario(
                num_nodes=num_nodes, seed=seed,
                depart_fraction=depart_fraction,
                abrupt_probability=abrupt_probability,
                depart_window=30.0, settle_time=60.0,
                faults=faults)
        return make

    def conflicts(result: RunResult) -> float:
        return float(result.duplicate_addresses)

    quorum_metrics: Dict[str, Callable[[RunResult], float]] = {
        "quorum/conflicts": conflicts,
        "quorum/adjustments": lambda r: float(
            r.event_count("quorum_shrink") + r.event_count("quorum_probe")),
        "quorum/reclamations": lambda r: float(
            r.event_count("reclamation_initiated")),
    }
    builder = _SeriesBuilder()
    for loss in loss_rates:
        make = scenario_for(loss)
        # One quorum run per seed serves all three quorum curves.
        results = sweep_over_seeds(make, "quorum", seeds, quorum_cfg())
        for label, metric in quorum_metrics.items():
            values = [metric(result) for result in results]
            builder.series.setdefault(label, []).append(
                statistics.mean(values))
            builder.stds.setdefault(label, []).append(
                statistics.stdev(values) if len(values) > 1 else 0.0)
        builder.add("manetconf/conflicts", make, "manetconf", conflicts, seeds)
        builder.add("dad/conflicts", make, "dad", conflicts, seeds)
    return _result("Robustness — conflicts and quorum repair vs loss rate",
                   "per-hop loss rate", "count per run", loss_rates,
                   builder.series, builder.stds)


# ---------------------------------------------------------------------------
# Table 1 — cluster-head configuration message exchange
# ---------------------------------------------------------------------------
TABLE1_EXPECTED = [
    "CH_REQ", "CH_PRP", "CH_CNF", "QUORUM_CLT", "QUORUM_CFM",
    "CH_CFG", "CH_ACK",
]


def table1_message_exchange(seed: int = 1) -> Dict[str, Any]:
    """Reproduce Table 1: the message sequence of a CH configuration.

    Builds a line topology where the third node is out of two-hop reach
    of the existing cluster head, forcing the CH_REQ path, and records
    the configuration-phase message types in order.
    """
    from repro.core.protocol import QuorumProtocolAgent
    from repro.geometry import Point
    from repro.mobility.base import Stationary
    from repro.net.context import NetworkContext
    from repro.net.node import Node
    from repro.net.trace import MessageTrace

    ctx = NetworkContext.build(seed=seed, transmission_range=150.0)
    recorder = MessageTrace().attach(ctx.transport)
    cfg = quorum_cfg()
    # A 7-node chain, 120 m spacing (1 hop per link at tr = 150 m),
    # plus a 3-node branch hanging off the middle head.  Heads form at
    # chain positions 0, 3 and 6, giving the middle head a two-member
    # QDSet; the branch's tip is three hops from it, so its CH_REQ
    # triggers the full Table 1 exchange with a real quorum round (a
    # majority of {self, head0, head6} needs one remote vote).
    positions = [Point(100 + 120 * i, 500) for i in range(7)]
    positions += [Point(460, 500 + 120 * j) for j in (1, 2, 3)]
    agents = []
    for i, position in enumerate(positions):
        node = Node(i, Stationary(position))
        ctx.topology.add_node(node)
        agent = QuorumProtocolAgent(ctx, node, cfg)
        ctx.sim.schedule(5.0 * i + 0.1, agent.on_enter)
        agents.append(agent)
    ctx.sim.run(until=80.0)
    recorder.detach()
    relevant = [
        (e.mtype, e.src, e.dst) for e in recorder.unicasts()
        if e.mtype in set(TABLE1_EXPECTED)
    ]
    # The last CH_REQ starts the exchange Table 1 depicts.
    last_req = max(
        (i for i, (mtype, _s, _d) in enumerate(relevant) if mtype == "CH_REQ"),
        default=0,
    )
    ch_config = relevant[last_req:]
    observed_order = []
    for mtype, _src, _dst in ch_config:
        if not observed_order or observed_order[-1] != mtype:
            observed_order.append(mtype)
    return {
        "title": "Table 1 — cluster head configuration exchange",
        "expected": TABLE1_EXPECTED,
        "observed": observed_order,
        "trace": ch_config,
        "roles": [a.role.value for a in agents],
    }
