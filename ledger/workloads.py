"""The ledger's four workloads.

Each workload is a class with the same shape: ``setup_segments()``
builds the inputs and the initial state (timed as set-up),
``steps()`` yields the measured steps, and ``collect()`` turns what
the program produced into exact facts and checks them.  ``steps()``
is a generator: code between two yields is the ledger's own
bookkeeping and is never timed.

The program receives only generated inputs (``Scenario`` objects,
``Node`` lists, calls into public functions); everything here reads
public surfaces only.  README.md says why each workload exists and
which layer it stresses; the size constants are recorded here and
echoed into every result file.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.core.config import ProtocolConfig
from repro.core.protocol import QuorumProtocolAgent
from repro.experiments.bootstrap import bulk_configure, space_bits_for
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenario import Scenario
from repro.faults.spec import FaultSpec
from repro.geometry import Point, Region
from repro.mobility.base import Stationary
from repro.mobility.waypoint import RandomWaypoint
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category
from repro.net.transport import Scope
from repro.perf import counters as cnt
from repro.sim.engine import Simulator
from repro.sim.rng import generator_from_seed
from repro.sim.timers import PeriodicTimer

Segments = List[Tuple[str, Callable[[], object]]]

TRANSMISSION_RANGE = 150.0
DENSITY = 4e-4          # nodes per square metre (degree ~ 28 at 150 m)


class EventCount:
    """Adds up what ``Simulator.run`` returns, for the whole process.

    ``ScenarioRunner.run`` drops that return value, and the engine keeps
    no public fired-event counter, so this is the one wrapper present in
    untraced runs too.  It costs one extra Python call per ``run`` call
    (a handful per pass), not per event.
    """

    def __init__(self) -> None:
        self.total = 0
        self._original: Optional[Callable[..., int]] = None

    def __enter__(self) -> "EventCount":
        original = self._original = Simulator.run

        def run(sim: Simulator, *args: Any, **kwargs: Any) -> int:
            fired = original(sim, *args, **kwargs)
            self.total += fired
            return fired

        Simulator.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *_exc: object) -> None:
        Simulator.run = self._original  # type: ignore[method-assign]


class Facts:
    """What one pass produced.  ``exact`` must repeat bit for bit on
    the same seed; ``host`` holds host-time readings (never compared)."""

    def __init__(self) -> None:
        self.exact: Dict[str, float] = {}
        self.host: Dict[str, float] = {}
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.violations: List[str] = []
        self.latency_samples = 0

    def check(self, ok: bool, message: str, operations: int = 1) -> None:
        """A correctness fact; a violated one fails ``operations``."""
        if not ok:
            self.violations.append(message)
            self.failed += operations

    def set_latency(self, hops: Sequence[int]) -> None:
        self.latency_samples = len(hops)
        self.exact["latency_hops_mean"] = statistics.fmean(hops) if hops else 0.0
        self.exact["latency_hops_p90"] = percentile(hops, 0.90)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def non_hello_hops(ctx: NetworkContext) -> int:
    return sum(hops for name, (hops, _msgs) in ctx.stats.snapshot().items()
               if name != Category.HELLO.value)


def add_counters(total: Dict[str, float], ctx: NetworkContext) -> None:
    """Fold one context's public counter surfaces into ``total``."""
    for name, value in ctx.perf.counters_snapshot().items():
        total["perf." + name] = total.get("perf." + name, 0) + value
    for name, value in ctx.events.snapshot().items():
        total["ev." + name] = total.get("ev." + name, 0) + value
    for name, (hops, msgs) in ctx.stats.snapshot().items():
        total["hops." + name] = total.get("hops." + name, 0) + hops
        total["msgs." + name] = total.get("msgs." + name, 0) + msgs
    for name, drops in ctx.stats.drops_snapshot().items():
        total["drops." + name] = total.get("drops." + name, 0) + drops


def add_timings(total: Dict[str, float], ctx: NetworkContext,
                scale: float) -> None:
    """Fold the program's own ``perf.timer`` totals, rescaled."""
    for name, stat in ctx.perf.timings_snapshot().items():
        key = "timer." + name
        total[key] = total.get(key, 0.0) + stat["total_s"] * scale


def mean_scale(steps: Sequence[Any]) -> float:
    """Time-weighted reference-per-host scale of a whole pass: the
    program's own ``perf.timer`` totals span steps of different host
    speed and can only be rescaled as a whole."""
    raw = sum(step.raw_s for step in steps)
    return sum(step.wall_s for step in steps) / raw if raw else 1.0


def address_facts(facts: Facts, agents: Sequence[Any]) -> None:
    """One operation per alive agent: it should hold an address that
    nobody else in its network holds."""
    alive = [agent for agent in agents if agent.node.alive]
    holders = Counter((agent.network_id, agent.ip) for agent in alive
                      if agent.is_configured())
    facts.attempted += len(alive)
    facts.completed += sum(holders.values())
    duplicated = sum(count for count in holders.values() if count > 1)
    facts.check(duplicated == 0,
                f"{duplicated} agents share a (network_id, ip)", duplicated)


# ----------------------------------------------------------------------
# join_mobile / join_static_lossy
# ----------------------------------------------------------------------
class JoinWorkload:
    """Paper-scale configuration runs through ``ScenarioRunner``.

    Section VI-A defaults (1 km^2, range 150 m, sequential arrivals on
    the sim-time schedule: an open loop), 30 % of nodes depart, 30 % of
    those abruptly.  The protocol is chaotic in its seed (hops per
    configuration of one static cell range 50-186 over 30 seeds), so
    the bulk of the pass is the two ends of the paper's size range at
    the fixed ``BASE_SEED`` and the run's ``--seed`` draws the small
    cells on top (README "Seeds").
    """

    BASE_SEED = 11
    BASE_SIZES = (100, 200)
    SEEDED_SIZE = 50
    SEEDED_CELLS = 2
    SMOKE_BASE_SIZES = (40,)
    SMOKE_SEEDED_SIZE = 25

    def __init__(self, seed: int, smoke: bool, *, mobile: bool) -> None:
        self.mobile = mobile
        self.seed = seed
        sizes = self.SMOKE_BASE_SIZES if smoke else self.BASE_SIZES
        seeded = self.SMOKE_SEEDED_SIZE if smoke else self.SEEDED_SIZE
        self.cells: List[Tuple[int, int]] = (
            [(n, self.BASE_SEED) for n in sizes]
            + [(seeded, seed + k) for k in range(self.SEEDED_CELLS)])
        self.scenarios: List[Scenario] = []
        self.runners: List[ScenarioRunner] = []
        self.results: List[Any] = []

    def constants(self) -> Dict[str, Any]:
        return {"cells": [list(cell) for cell in self.cells],
                "depart_fraction": 0.3, "abrupt_probability": 0.3,
                "speed_mps": 20.0 if self.mobile else 0.0,
                "loss_rate": 0.0 if self.mobile else 0.05}

    def setup_segments(self) -> Segments:
        def generate() -> None:
            extra: Dict[str, Any] = {}
            if not self.mobile:
                extra = {"speed_mps": 0.0,
                         "faults": FaultSpec(loss_rate=0.05)}
            self.scenarios = [
                Scenario(num_nodes=n, seed=cell_seed, depart_fraction=0.3,
                         abrupt_probability=0.3, **extra)
                for n, cell_seed in self.cells]
        return [("generate", generate)]

    def steps(self) -> Iterator[Tuple[str, Segments]]:
        for (n, cell_seed), scenario in zip(self.cells, self.scenarios):
            runner = ScenarioRunner(scenario, "quorum")
            self.runners.append(runner)
            yield (f"cell-n{n}-s{cell_seed}",
                   [("run", lambda r=runner: self.results.append(r.run()))])

    def collect(self, steps: Sequence[Any], events: int) -> Facts:
        facts = Facts()
        exact = facts.exact
        latencies: List[int] = []
        for runner, result, step in zip(self.runners, self.results, steps):
            ctx = runner.ctx
            assert ctx is not None
            add_counters(exact, ctx)
            add_timings(facts.host, ctx, step.scale)
            address_facts(facts, list(ctx.agents.values()))
            # Every node that entered did so through the message path.
            latencies.extend(outcome.latency_hops
                             for outcome in result.outcomes
                             if outcome.latency_hops is not None)
            for key, amount in (
                    ("msg_hops", non_hello_hops(ctx)),
                    ("configured", sum(1 for outcome in result.outcomes
                                       if outcome.configured)),
                    ("sim.compactions", ctx.sim.compactions),
                    ("sim.heap_size_end", ctx.sim.heap_size),
                    ("sim_seconds", result.duration)):
                exact[key] = exact.get(key, 0) + amount
        exact["events_fired"] = events
        facts.set_latency(latencies)
        return facts


class JoinMobile(JoinWorkload):
    name = "join_mobile"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke, mobile=True)


class JoinStaticLossy(JoinWorkload):
    name = "join_static_lossy"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke, mobile=False)


# ----------------------------------------------------------------------
# scale_lifecycle
# ----------------------------------------------------------------------
class ScaleLifecycle:
    """A settled stationary network through storm, partition and heal.

    The script of ``repro.perf.scale._run_protocol_size`` re-expressed
    over public APIs with no profiler attached.  The population layout
    comes from the fixed ``LAYOUT_SEED``: about three layouts in ten
    melt the heal phase down (README "Known meltdown"), and the vetted
    one keeps every operation succeeding.  ``--seed`` drives the
    simulator's random streams and the storm entrants' positions.
    """

    name = "scale_lifecycle"

    N = 2000
    SMOKE_N = 1000
    LAYOUT_SEED = 11
    SETTLE_S = 30.0
    STORM_ENTRANTS = 64
    STORM_SPACING_S = 0.25
    STORM_DRAIN_S = 20.0
    MOAT_INNER_M = 600.0
    MOAT_OUTER_M = 800.0
    DETECT_WINDOW_S = 3.5     # shorter than T_d: no probe has fired yet
    RECOVER_S = 60.0
    HEAL_S = 30.0
    PHASES = ("settle", "storm", "detect", "recover", "heal")

    def __init__(self, seed: int, smoke: bool, n: Optional[int] = None) -> None:
        self.seed = seed
        self.n = n if n is not None else (self.SMOKE_N if smoke else self.N)
        self.ctx: Optional[NetworkContext] = None
        self.nodes: List[Node] = []
        self.setup: Any = None
        self.entrants: List[QuorumProtocolAgent] = []
        self.moat: List[Node] = []
        self.phase_counters: Dict[str, Dict[str, int]] = {}

    def constants(self) -> Dict[str, Any]:
        return {"n": self.n, "layout_seed": self.LAYOUT_SEED,
                "density_per_m2": DENSITY, "settle_s": self.SETTLE_S,
                "storm_entrants": self.STORM_ENTRANTS,
                "detect_window_s": self.DETECT_WINDOW_S,
                "recover_s": self.RECOVER_S, "heal_s": self.HEAL_S}

    def setup_segments(self) -> Segments:
        def build() -> None:
            self.ctx = NetworkContext.build(
                seed=self.seed, transmission_range=TRANSMISSION_RANGE)
            side = math.sqrt(self.n / DENSITY)
            layout = generator_from_seed(self.LAYOUT_SEED)
            self.nodes = [
                Node(i, Stationary(Point(layout.uniform(0, side),
                                         layout.uniform(0, side))))
                for i in range(self.n)]
            # A stationary population has no movement to track (the
            # paper's upon-leave location scheme, Section IV-C-1).
            self.cfg = ProtocolConfig(
                address_space_bits=space_bits_for(self.n),
                location_update_mode="upon_leave")

        def bootstrap() -> None:
            assert self.ctx is not None
            self.setup = bulk_configure(self.ctx, self.cfg, self.nodes)

        def labels() -> None:
            # First full graph build, and the connectivity labels go
            # live so that every later rebuild rides the delta path.
            assert self.ctx is not None
            self.ctx.topology.component_count()

        return [("build", build), ("bulk_configure", bootstrap),
                ("labels", labels)]

    def steps(self) -> Iterator[Tuple[str, Segments]]:
        ctx = self.ctx
        assert ctx is not None
        sim, topo = ctx.sim, ctx.topology
        placement = generator_from_seed(self.seed)
        before = ctx.perf.counters_snapshot()

        def delta(phase: str) -> None:
            nonlocal before
            after = ctx.perf.counters_snapshot()
            self.phase_counters[phase] = {
                name: after[name] - before.get(name, 0) for name in after}
            before = after

        yield "settle", [("settle", lambda: sim.run(until=self.SETTLE_S))]
        delta("settle")

        def storm() -> int:
            heads = self.setup.heads
            for k in range(self.STORM_ENTRANTS):
                # Entrants camp next to cluster heads, round-robin over
                # the whole network: the storm must exercise allocation,
                # not the no-head-in-hello-scope corner case.
                anchor = topo.get(heads[(k * 7) % len(heads)]).position(sim.now)
                node = Node(self.n + k, Stationary(Point(
                    anchor.x + placement.uniform(-100.0, 100.0),
                    anchor.y + placement.uniform(-100.0, 100.0))))
                topo.add_node(node)
                agent = QuorumProtocolAgent(ctx, node, self.cfg)
                self.entrants.append(agent)
                sim.schedule(self.STORM_SPACING_S * (k + 1), agent.on_enter)
            return sim.run(until=sim.now + self.STORM_DRAIN_S
                           + self.STORM_SPACING_S * self.STORM_ENTRANTS)

        yield "storm", [("storm", storm)]
        delta("storm")

        def in_square(node: Node, bound: float) -> bool:
            p = node.position(0.0)
            return p.x < bound and p.y < bound

        everyone = self.nodes + [agent.node for agent in self.entrants]
        self.moat = [node for node in everyone
                     if in_square(node, self.MOAT_OUTER_M)
                     and not in_square(node, self.MOAT_INNER_M)]

        def cut() -> int:
            for node in self.moat:
                node.kill()
            topo.invalidate_nodes(node.node_id for node in self.moat)
            return sim.run(until=sim.now + self.DETECT_WINDOW_S)

        yield "detect", [("detect", cut)]
        delta("detect")

        yield "recover", [
            ("recover", lambda: sim.run(until=sim.now + self.RECOVER_S))]
        delta("recover")

        def heal() -> int:
            for node in self.moat:
                node.alive = True
            topo.invalidate_nodes(node.node_id for node in self.moat)
            return sim.run(until=sim.now + self.HEAL_S)

        yield "heal", [("heal", heal)]
        delta("heal")

    def collect(self, steps: Sequence[Any], events: int) -> Facts:
        ctx = self.ctx
        assert ctx is not None
        facts = Facts()
        add_counters(facts.exact, ctx)
        agents = list(self.setup.agents) + self.entrants
        address_facts(facts, agents)
        networks = {agent.network_id for agent in agents
                    if agent.node.alive and agent.is_configured()}
        facts.check(len(networks) == 1,
                    f"{len(networks)} network ids after heal", len(agents))
        detect = self.phase_counters.get("detect", {})
        for counter in (cnt.BFS_UNBOUNDED, cnt.CONN_FULL_RELABELS):
            facts.check(detect.get(counter, 0) == 0,
                        f"detect window issued {detect.get(counter, 0)} "
                        f"{counter}: detection must ride the labels")
        facts.check(ctx.topology.component_count()
                    == len(ctx.topology.components()),
                    "label component count differs from components()")
        for step in steps:
            facts.exact[f"phase.{step.name}_events"] = sum(
                out for _seg, _raw, out in step.segments)
            facts.host[f"phase.{step.name}_s"] = step.wall_s
            for name, value in self.phase_counters[step.name].items():
                facts.exact[f"phase.{step.name}.{name}"] = value
        add_timings(facts.host, ctx, mean_scale(steps))
        facts.exact["events_fired"] = events
        facts.exact["msg_hops"] = non_hello_hops(ctx)
        facts.exact["configured"] = facts.completed
        facts.exact["storm_configured"] = sum(
            1 for agent in self.entrants if agent.is_configured())
        facts.exact["moat_nodes"] = len(self.moat)
        facts.exact["sim.compactions"] = ctx.sim.compactions
        facts.exact["sim.heap_size_end"] = ctx.sim.heap_size
        facts.exact["sim_seconds"] = ctx.sim.now
        facts.exact["agents"] = len(agents)
        # Storm entrants are the only nodes that entered by message.
        facts.set_latency([agent.config_latency_hops
                           for agent in self.entrants
                           if agent.config_latency_hops is not None])
        return facts


# ----------------------------------------------------------------------
# engine_churn
# ----------------------------------------------------------------------
def _noop() -> None:
    """The timer storm's callback: the span around it times plumbing."""


class EngineChurn:
    """The network substrate and the event engine with no agents.

    A constant-density population (1 % random waypoint) is built once;
    every round then does one delta refresh, a batch of bounded 3-hop
    queries, a few whole-component floods, unicasts routed from the
    flood sources, label queries, a kill/revive batch through
    ``invalidate_nodes`` and a burst of schedule+cancel pairs.  A timer
    storm of no-op ``PeriodicTimer``s closes the pass.  Nothing in
    ``repro.core``/``quorum``/``addrspace`` runs.
    """

    name = "engine_churn"

    N = 25_000
    ROUNDS = 6
    SMOKE_N = 3000
    SMOKE_ROUNDS = 2
    MOBILE_EVERY = 100       # one walker per hundred nodes
    SPEED_MPS = 20.0
    REFRESH_S = 0.5
    KHOP_SOURCES = 1024
    KHOP_BOUND = 3           # the paper's QDSet scope
    FLOOD_SOURCES = 4
    UNICASTS_PER_FLOOD = 256
    CHURN_NODES = 64
    TIMER_PAIRS = 2000
    STORM_TIMERS = 20_000
    STORM_SIM_S = 10.0

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.n = self.SMOKE_N if smoke else self.N
        self.rounds = self.SMOKE_ROUNDS if smoke else self.ROUNDS
        self.storm_timers = self.STORM_TIMERS // (10 if smoke else 1)
        self.ctx: Optional[NetworkContext] = None
        self.nodes: List[Node] = []
        self.route_hops: List[int] = []
        self.unicasts = 0
        self.delivered = 0
        self.checks: List[Tuple[bool, str]] = []

    def constants(self) -> Dict[str, Any]:
        return {"n": self.n, "rounds": self.rounds,
                "density_per_m2": DENSITY,
                "mobile_fraction": 1.0 / self.MOBILE_EVERY,
                "khop_sources": self.KHOP_SOURCES,
                "flood_sources": self.FLOOD_SOURCES,
                "unicasts_per_flood": self.UNICASTS_PER_FLOOD,
                "churn_nodes": self.CHURN_NODES,
                "timer_pairs": self.TIMER_PAIRS,
                "storm_timers": self.storm_timers,
                "storm_sim_s": self.STORM_SIM_S}

    def setup_segments(self) -> Segments:
        def generate() -> None:
            side = math.sqrt(self.n / DENSITY)
            region = Region(side, side)
            layout = generator_from_seed(self.seed)
            for i in range(self.n):
                start = Point(layout.uniform(0, side), layout.uniform(0, side))
                if i % self.MOBILE_EVERY == 0:
                    # A private stream per walker keeps the population
                    # reproducible whatever order positions are read in.
                    mobility: Any = RandomWaypoint(
                        region, start, self.SPEED_MPS,
                        generator_from_seed(self.seed * 1_000_003 + i))
                else:
                    mobility = Stationary(start)
                self.nodes.append(Node(i, mobility))

        def build() -> None:
            self.ctx = NetworkContext.build(
                seed=self.seed, transmission_range=TRANSMISSION_RANGE)
            self.ctx.topology.add_nodes(self.nodes)
            self.ctx.topology.neighbors(0)   # forces the full build

        return [("generate", generate), ("build", build)]

    def steps(self) -> Iterator[Tuple[str, Segments]]:
        ctx = self.ctx
        assert ctx is not None
        sim, topo, transport = ctx.sim, ctx.topology, ctx.transport
        nodes, n = self.nodes, self.n
        pick = generator_from_seed(self.seed + 7)
        probe = Message(mtype="LEDGER_PROBE", src=0, dst=None)

        for round_no in range(self.rounds):
            sources = [pick.randrange(n) for _ in range(self.KHOP_SOURCES)]
            flood_sources = [pick.randrange(n)
                             for _ in range(self.FLOOD_SOURCES)]
            targets = [nodes[pick.randrange(n)]
                       for _ in range(self.CHURN_NODES)]
            target_ids = [node.node_id for node in targets]
            reached: List[Dict[int, int]] = []

            def refresh() -> int:
                # Past the refresh interval, so the query below pays
                # one delta refresh of the shards the walkers dirtied.
                fired = sim.run(until=sim.now + self.REFRESH_S * 1.01)
                topo.neighbors(0)
                return fired

            def khop() -> None:
                topo.warm_bfs(sources, max_hops=self.KHOP_BOUND)
                for source in sources:
                    topo.within_hops(source, self.KHOP_BOUND)

            def flood() -> None:
                for source in flood_sources:
                    reached.append(topo.reachable(source, max_hops=None))

            def unicast() -> None:
                # Routed from the flood sources, whose distance maps are
                # memoized: this times the transport, not another BFS.
                for source, lengths in zip(flood_sources, reached):
                    ids = list(lengths)
                    for _ in range(self.UNICASTS_PER_FLOOD):
                        dst = ids[pick.randrange(len(ids))]
                        if dst == source:
                            continue
                        outcome = transport.send(
                            nodes[source], nodes[dst], probe,
                            category=Category.MAINTENANCE,
                            scope=Scope.UNICAST)
                        self.unicasts += 1
                        if outcome.delivered:
                            self.delivered += 1
                            self.route_hops.append(outcome.hops)

            def label() -> None:
                topo.component_count()
                topo.same_component(0, n - 1)

            def churn() -> None:
                for node in targets:
                    node.kill()
                topo.invalidate_nodes(target_ids)
                topo.neighbors(0)
                for node in targets:
                    node.alive = True
                topo.invalidate_nodes(target_ids)
                topo.neighbors(0)

            def timers() -> None:
                for i in range(self.TIMER_PAIRS):
                    sim.cancel(sim.schedule(100.0 + i, _noop))

            yield f"round-{round_no}", [
                ("refresh", refresh), ("khop", khop), ("flood", flood),
                ("unicast", unicast), ("label", label)]
            edges = topo.edge_count()
            yield f"churn-{round_no}", [("churn", churn), ("timers", timers)]
            # Structural checks, one operation each: everyone revived
            # in place, so the graph must be exactly where it was, and
            # the labels must agree with a fresh component walk.
            self.checks.append((
                topo.edge_count() == edges,
                f"round {round_no}: edge count changed across kill/revive"))
            self.checks.append((
                topo.component_count() == len(topo.components()),
                f"round {round_no}: labels disagree with components()"))

        storm = [PeriodicTimer(sim, 1.0, _noop)
                 for _ in range(self.storm_timers)]

        def arm() -> None:
            for i, timer in enumerate(storm):
                timer.start(first_delay=(i % 1000) / 1000.0)

        def stop() -> None:
            for timer in storm:
                timer.stop()

        yield "timer-storm", [
            ("arm", arm),
            ("noop_events", lambda: sim.run(until=sim.now + self.STORM_SIM_S)),
            ("stop", stop)]

    def collect(self, steps: Sequence[Any], events: int) -> Facts:
        ctx = self.ctx
        assert ctx is not None
        facts = Facts()
        add_counters(facts.exact, ctx)
        facts.attempted = self.unicasts + len(self.checks)
        facts.completed = self.delivered + sum(
            1 for ok, _message in self.checks if ok)
        for ok, message in self.checks:
            facts.check(ok, message)
        facts.check(facts.exact.get("perf." + cnt.CONN_FULL_RELABELS, 0) <= 1,
                    "kill/revive churn fell off the delta-relabel path")
        add_timings(facts.host, ctx, mean_scale(steps))
        rounds = [step for step in steps if step.name != "timer-storm"]
        storm = steps[-1]
        for segment, key, unit in (
                ("refresh", "net.topology.refresh_ms_p50", 1e3),
                ("flood", "net.topology.flood_ms_p50",
                 1e3 / self.FLOOD_SOURCES),
                ("khop", "net.topology.khop_query_us_p50",
                 1e6 / self.KHOP_SOURCES),
                ("label", "net.topology.label_query_us_p50", 1e6 / 2),
                ("churn", "net.topology.churn_batch_ms_p50", 1e3 / 2),
                ("timers", "sim.timer_churn_us", 1e6 / self.TIMER_PAIRS)):
            facts.host[key] = unit * statistics.median(
                step.segment_s(segment) for step in rounds
                if any(seg == segment for seg, _raw, _out in step.segments))
        storm_events = sum(out for seg, _raw, out in storm.segments
                           if seg == "noop_events")
        facts.host["sim.noop_event_us"] = (
            1e6 * storm.segment_s("noop_events") / max(1, storm_events))
        facts.exact["events_fired"] = events
        facts.exact["msg_hops"] = non_hello_hops(ctx)
        facts.exact["unicasts"] = self.unicasts
        facts.exact["edges"] = ctx.topology.edge_count()
        facts.exact["components"] = ctx.topology.component_count()
        facts.exact["sim.compactions"] = ctx.sim.compactions
        facts.exact["sim.heap_size_end"] = ctx.sim.heap_size
        facts.exact["sim_seconds"] = ctx.sim.now
        facts.set_latency(self.route_hops)
        return facts


WORKLOADS = {cls.name: cls for cls in (
    JoinMobile, JoinStaticLossy, ScaleLifecycle, EngineChurn)}
