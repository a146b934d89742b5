"""Drives a protocol through a scenario and collects a RunResult."""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Optional

from repro.baselines.buddy import BuddyAgent
from repro.baselines.ctree import CTreeAgent
from repro.baselines.dad import DadAgent
from repro.baselines.manetconf import ManetconfAgent
from repro.core.protocol import QuorumProtocolAgent
from repro.experiments.metrics import DeathRecord, NodeOutcome, RunResult
from repro.experiments.scenario import Scenario
from repro.geometry import Point, Region
from repro.mobility import RandomWaypoint, build_plans
from repro.mobility.base import Stationary
from repro.net.agent import Agent
from repro.net.context import NetworkContext
from repro.net.node import Node
from repro.obs import (
    MetricsRecorder, TraceRecorder, build_spans, series_to_jsonl,
    span_histograms, span_outcomes,
)

#: Every agent class by its ``protocol_name``.  An agent built with no
#: config defaults its own.
PROTOCOLS: Dict[str, Callable[..., Agent]] = {
    cls.protocol_name: cls for cls in (
        QuorumProtocolAgent, ManetconfAgent, BuddyAgent, CTreeAgent,
        DadAgent)}


class ScenarioRunner:
    """Runs one protocol against one scenario.

    A traced (``scenario.trace``) run appends its JSONL, after a one-line
    ``{"run": ...}`` header, to ``trace_out`` when given; a sampled
    (``scenario.metrics``) run appends its series block to
    ``metrics_out``.
    """

    def __init__(
        self,
        scenario: Scenario,
        protocol: str = "quorum",
        protocol_config: Optional[Any] = None,
        trace_out: Optional[str] = None,
        metrics_out: Optional[str] = None,
    ) -> None:
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}")
        self.scenario = scenario
        self.protocol = protocol
        self.protocol_config = protocol_config
        self.trace_out = trace_out
        self.metrics_out = metrics_out
        self.ctx: Optional[NetworkContext] = None
        # Populated (and subscribed to the run's event bus) only when
        # scenario.trace is set; otherwise the bus stays subscriber-free
        # and every emission site short-circuits.
        self.recorder: Optional[TraceRecorder] = None
        # Populated only when scenario.metrics is set; otherwise no
        # sampling timer is ever scheduled (zero overhead).
        self.metrics: Optional[MetricsRecorder] = None
        self.deaths: List[DeathRecord] = []
        self.graceful_departures = 0
        self.abrupt_departures = 0
        self.graceful_ids: set = set()

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        scenario = self.scenario
        region = Region(*scenario.area)
        ctx = NetworkContext.build(
            seed=scenario.seed,
            transmission_range=scenario.transmission_range,
            faults=scenario.faults,
        )
        self.ctx = ctx
        if scenario.trace:
            self.recorder = TraceRecorder().attach(ctx.obs)
        if scenario.metrics:
            self.metrics = MetricsRecorder(
                period=scenario.metrics_period).attach(ctx)

        plans = build_plans(
            num_nodes=scenario.num_nodes,
            region=region,
            rng=ctx.sim.streams.get("scenario"),
            inter_arrival=scenario.inter_arrival,
            depart_fraction=scenario.depart_fraction,
            abrupt_probability=scenario.abrupt_probability,
            depart_after=scenario.depart_after,
            depart_window=scenario.depart_window,
            hotspot=Point(*scenario.hotspot) if scenario.hotspot else None,
            hotspot_radius=scenario.hotspot_radius,
        )
        last_event = 0.0
        for plan in plans:
            ctx.sim.schedule_at(plan.arrival.time, self._arrive, plan, region)
            last_event = max(last_event, plan.arrival.time)
            if plan.departure is not None:
                ctx.sim.schedule_at(
                    plan.departure.time, self._depart, plan.departure)
                last_event = max(last_event, plan.departure.time)
        duration = last_event + scenario.settle_time
        ctx.sim.run(until=duration)
        return self._collect(duration)

    # ------------------------------------------------------------------
    def _arrive(self, plan, region: Region) -> None:
        assert self.ctx is not None
        ctx = self.ctx
        position = plan.arrival.position
        if self.scenario.connected_arrivals and self.scenario.hotspot is None:
            position = self._connected_position(region, position)
        node = Node(plan.arrival.node_id, Stationary(position))
        ctx.topology.add_node(node)
        agent = PROTOCOLS[self.protocol](ctx, node, self.protocol_config)
        agent.on_configured_callback = self._start_movement(region)
        agent.on_enter()

    def _connected_position(self, region: Region, fallback) -> Any:
        """Place an arrival near an existing node (joining the network),
        keeping a uniform share to seed growth across the area."""
        assert self.ctx is not None
        ctx = self.ctx
        rng = ctx.sim.streams.get("placement")
        alive = ctx.topology.nodes()
        if not alive or rng.random() < self.scenario.uniform_arrival_fraction:
            return fallback
        anchor = rng.choice(alive)
        return region.random_point_near(
            anchor.position(ctx.sim.now),
            0.8 * self.scenario.transmission_range, rng)

    def _start_movement(self, region: Region) -> Callable[[Any], None]:
        scenario = self.scenario

        def callback(agent: Any) -> None:
            if scenario.speed_mps <= 0:
                return
            ctx = agent.ctx
            node = agent.node
            if isinstance(node.mobility, RandomWaypoint):
                return  # already moving (e.g. reconfigured after a merge)
            rng = ctx.sim.streams.get(f"mobility-{node.node_id}")
            node.mobility = RandomWaypoint(
                region, node.position(ctx.sim.now), scenario.speed_mps,
                rng, start_time=ctx.sim.now,
            )

        return callback

    def _depart(self, departure) -> None:
        assert self.ctx is not None
        agent = self.ctx.agent_of(departure.node_id)
        if agent is None or not agent.node.alive:
            return
        if departure.abrupt:
            self.abrupt_departures += 1
            self.deaths.append(self._death_record(agent))
            agent.vanish()
        else:
            self.graceful_departures += 1
            self.graceful_ids.add(departure.node_id)
            agent.depart_gracefully()

    def _death_record(self, agent: Agent) -> DeathRecord:
        assert self.ctx is not None
        record = DeathRecord(node_id=agent.node_id, time=self.ctx.sim.now,
                             **agent.death_snapshot())
        head = getattr(agent, "head", None)
        if head is not None:
            record.qdset_members = tuple(head.qdset.members())
        return record

    # ------------------------------------------------------------------
    def _collect(self, duration: float) -> RunResult:
        assert self.ctx is not None
        ctx = self.ctx
        outcomes: List[NodeOutcome] = []
        qdset_sizes: List[int] = []
        ip_space_total = 0
        quorum_space_total = 0
        head_count = 0
        seen_addresses: Dict[Any, int] = {}
        duplicates = 0
        for node_id, agent in sorted(ctx.agents.items()):
            configured = agent.ip is not None
            latency_time = (
                agent.configured_at - agent.entered_at
                if agent.configured_at is not None and agent.entered_at is not None
                else None
            )
            outcomes.append(NodeOutcome(
                node_id=node_id,
                configured=configured,
                failed=bool(agent.failed),
                latency_hops=agent.config_latency_hops,
                latency_time=latency_time,
                attempts=agent.attempts,
                is_head=agent.is_allocator(),
                ip=agent.ip,
                network_id=agent.network_id,
                alive=agent.node.alive,
                reconfigurations=agent.reconfigurations,
            ))
            if agent.node.alive and configured:
                key = (agent.network_id, agent.ip)
                if key in seen_addresses:
                    duplicates += 1
                else:
                    seen_addresses[key] = node_id
            head = getattr(agent, "head", None)
            if head is not None and agent.node.alive:
                head_count += 1
                qdset_sizes.append(len(head.qdset))
                ip_space_total += head.ip_space_size()
                quorum_space_total += head.quorum_space_size()
        obs_histograms: Dict[str, List[int]] = {}
        obs_spans: Dict[str, int] = {}
        if self.recorder is not None:
            spans = build_spans(self.recorder.events)
            obs_histograms = span_histograms(spans)
            obs_spans = span_outcomes(spans)
            self._export_trace()
        obs_metrics: Dict[str, List[int]] = {}
        if self.metrics is not None:
            obs_metrics = self.metrics.series()
            self._export_metrics(obs_metrics)
        return RunResult(
            protocol=self.protocol,
            num_nodes=self.scenario.num_nodes,
            duration=duration,
            outcomes=outcomes,
            stats_hops={k: v[0] for k, v in ctx.stats.snapshot().items()},
            stats_msgs={k: v[1] for k, v in ctx.stats.snapshot().items()},
            deaths=self.deaths,
            graceful_departures=self.graceful_departures,
            abrupt_departures=self.abrupt_departures,
            graceful_ids=frozenset(self.graceful_ids),
            qdset_sizes=qdset_sizes,
            ip_space_total=ip_space_total,
            quorum_space_total=quorum_space_total,
            head_count=head_count,
            duplicate_addresses=duplicates,
            stats_drops=dict(ctx.stats.drops_snapshot()),
            events=dict(ctx.events.snapshot()),
            perf_counters=ctx.perf.counters_snapshot(),
            obs_histograms=obs_histograms,
            obs_spans=obs_spans,
            obs_metrics=obs_metrics,
        )

    def _export_trace(self) -> None:
        """Append this run's JSONL to ``trace_out``, if given."""
        assert self.recorder is not None
        path = self.trace_out
        if path is None:
            return
        header = json.dumps({
            "run": {"protocol": self.protocol,
                    "seed": self.scenario.seed,
                    "num_nodes": self.scenario.num_nodes,
                    "events": len(self.recorder),
                    "truncated": self.recorder.truncated}},
            sort_keys=True, separators=(",", ":"))
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(header + "\n")
            sink.write(self.recorder.to_jsonl())

    def _export_metrics(self, series: Dict[str, List[int]]) -> None:
        """Append this run's series to ``metrics_out``, if given."""
        assert self.metrics is not None
        path = self.metrics_out
        if path is None:
            return
        block = series_to_jsonl(
            series, self.metrics.period,
            meta={"protocol": self.protocol,
                  "seed": self.scenario.seed,
                  "num_nodes": self.scenario.num_nodes})
        with open(path, "a", encoding="utf-8") as sink:
            sink.write(block)


def run_scenario(
    scenario: Scenario,
    protocol: str = "quorum",
    protocol_config: Optional[Any] = None,
) -> RunResult:
    """Convenience wrapper: build a runner, run it, return the result."""
    return ScenarioRunner(scenario, protocol, protocol_config).run()

