"""Run results and derived metrics.

The figures are all derived from two ingredients: per-node
configuration outcomes (latency in hops, success, role) and the
per-category hop counters of :class:`repro.net.stats.MessageStats`.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, List, Optional, Tuple


@dataclasses.dataclass
class DeathRecord:
    """Snapshot taken when a node departs abruptly (for Fig. 13)."""

    node_id: int
    time: float
    was_head: bool
    qdset_members: Tuple[int, ...] = ()
    # C-tree bookkeeping (zeros for other protocols):
    ever_reported: bool = False
    allocations_since_report: int = 0
    allocations_total: int = 0
    root_id: Optional[int] = None


@dataclasses.dataclass
class NodeOutcome:
    """Per-node configuration outcome."""

    node_id: int
    configured: bool
    failed: bool
    latency_hops: Optional[int]
    latency_time: Optional[float]
    attempts: int
    is_head: bool
    ip: Optional[int]
    network_id: Optional[int]
    alive: bool
    reconfigurations: int


@dataclasses.dataclass
class RunResult:
    """Everything measured in one simulation run."""

    protocol: str
    num_nodes: int
    duration: float
    outcomes: List[NodeOutcome]
    stats_hops: Dict[str, int]
    stats_msgs: Dict[str, int]
    deaths: List[DeathRecord]
    graceful_departures: int
    abrupt_departures: int
    graceful_ids: frozenset = frozenset()
    # Quorum-protocol structure metrics (empty for baselines).
    qdset_sizes: List[int] = dataclasses.field(default_factory=list)
    extension_ratios: List[float] = dataclasses.field(default_factory=list)
    ip_space_total: int = 0
    quorum_space_total: int = 0
    head_count: int = 0
    duplicate_addresses: int = 0
    leaked_addresses: int = 0
    # Fault-injection observability (empty for fault-free runs):
    # per-category hops lost to injected faults, and named protocol /
    # fault events (quorum_shrink, reclamation_initiated, fault_crashes,
    # ...) counted by Counters during the run.
    stats_drops: Dict[str, int] = dataclasses.field(default_factory=dict)
    events: Dict[str, int] = dataclasses.field(default_factory=dict)
    # Deterministic perf counters from repro.perf (graph rebuilds, BFS
    # calls/expansions, cache hits, sends per scope).  Counts of
    # algorithmic work only — never wall clock — so they are identical
    # across machines, reruns and worker counts.
    perf_counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    # Structured-tracing aggregates (empty unless Scenario.trace): span
    # latency histograms per phase (fixed buckets, see
    # repro.obs.spans.BUCKET_EDGES) and span counts per outcome.  Both
    # are sim-time derived, so serial and parallel runs agree exactly.
    obs_histograms: Dict[str, List[int]] = dataclasses.field(default_factory=dict)
    obs_spans: Dict[str, int] = dataclasses.field(default_factory=dict)
    # Run-level gauge series (empty unless Scenario.metrics): one
    # fixed-cadence sim-time series per registered metric name, sample
    # i taken at t = i * Scenario.metrics_period.  Sampling rides the
    # run's own simulator clock, so serial and parallel runs agree
    # byte for byte (see repro.obs.metrics).
    obs_metrics: Dict[str, List[int]] = dataclasses.field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metrics (the quantities plotted in the paper)
    # ------------------------------------------------------------------
    def configured_count(self) -> int:
        return sum(1 for o in self.outcomes if o.configured)

    def configuration_success_rate(self) -> float:
        return self.configured_count() / max(1, len(self.outcomes))

    def avg_config_latency_hops(self) -> float:
        """Fig. 5-7: mean critical-path hop count of configuration."""
        values = [o.latency_hops for o in self.outcomes
                  if o.configured and o.latency_hops is not None]
        return statistics.mean(values) if values else 0.0

    def avg_config_latency_time(self) -> float:
        values = [o.latency_time for o in self.outcomes
                  if o.configured and o.latency_time is not None]
        return statistics.mean(values) if values else 0.0

    def config_overhead_per_node(self, include_maintenance: bool = True) -> float:
        """Fig. 8: configuration message hops per configured node.

        ``include_maintenance`` folds in state-upkeep traffic (the
        Buddy scheme's periodic global synchronization, our replica
        distribution), which is what makes [2] grow with network size.
        """
        hops = self.stats_hops.get("config", 0)
        if include_maintenance:
            hops += self.stats_hops.get("maintenance", 0)
        return hops / max(1, self.configured_count())

    def departure_overhead_per_departure(self) -> float:
        """Fig. 9: departure message hops per graceful departure."""
        return (self.stats_hops.get("departure", 0)
                / max(1, self.graceful_departures))

    def maintenance_overhead(self) -> float:
        """Fig. 10: movement + departure + upkeep hops per node."""
        hops = (
            self.stats_hops.get("movement", 0)
            + self.stats_hops.get("departure", 0)
            + self.stats_hops.get("maintenance", 0)
        )
        return hops / max(1, self.num_nodes)

    def movement_overhead_per_node(self) -> float:
        """Fig. 11: location-update hops per node."""
        return self.stats_hops.get("movement", 0) / max(1, self.num_nodes)

    def reclamation_overhead(self) -> float:
        """Fig. 14: reclamation hops per abrupt departure."""
        return (self.stats_hops.get("reclamation", 0)
                / max(1, self.abrupt_departures))

    def avg_qdset_size(self) -> float:
        """Fig. 12 companion: mean |QDSet| over cluster heads."""
        return statistics.mean(self.qdset_sizes) if self.qdset_sizes else 0.0

    def avg_extension_ratio(self) -> float:
        """Fig. 12: aggregate (IPSpace + QuorumSpace) / IPSpace.

        Computed over totals across all cluster heads — the per-head
        mean is dominated by heads whose own space has been split down
        to a handful of addresses.
        """
        if self.ip_space_total <= 0:
            return 1.0
        return (self.ip_space_total + self.quorum_space_total) / self.ip_space_total

    def information_loss_pct(self) -> float:
        """Fig. 13: % of abruptly departed allocators whose IP state was
        lost.

        Quorum protocol: state survives iff at least half the QDSet (as
        of the death) remained in the network — members that departed
        *gracefully* handed their replicas off and count as surviving
        (Section VI-D-2).

        C-tree: all state of every dead coordinator is lost if the
        C-root itself departed abruptly (the single point of failure);
        otherwise a coordinator's unreported allocations are lost, and
        everything if it never managed to report.
        """
        losses: List[float] = []
        alive_ids = {o.node_id for o in self.outcomes if o.alive}
        surviving_ids = alive_ids | set(self.graceful_ids)
        abrupt_ids = {d.node_id for d in self.deaths}
        for death in self.deaths:
            if not death.was_head:
                continue
            if self.protocol == "ctree":
                if death.root_id is not None and death.root_id in abrupt_ids:
                    losses.append(1.0)
                elif not death.ever_reported:
                    losses.append(1.0)
                else:
                    total = max(1, death.allocations_total)
                    losses.append(death.allocations_since_report / total)
            else:
                members = death.qdset_members
                if not members:
                    losses.append(1.0)
                    continue
                surviving = sum(1 for mid in members if mid in surviving_ids)
                losses.append(0.0 if 2 * surviving >= len(members) else 1.0)
        return 100.0 * statistics.mean(losses) if losses else 0.0

    def uniqueness_ok(self) -> bool:
        """Address uniqueness: no two alive nodes share (network, ip)."""
        return self.duplicate_addresses == 0

    def event_count(self, name: str) -> int:
        """A named protocol/fault event counter (0 when never fired)."""
        return self.events.get(name, 0)

    # ------------------------------------------------------------------
    # Serialization (the sweep executor's on-disk cache format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """A JSON-safe dict that :meth:`from_dict` restores exactly.

        ``from_dict(to_dict(r)) == r`` — the round-trip is lossless, so
        a cache hit in :mod:`repro.experiments.sweep` is
        indistinguishable from re-running the simulation.
        """
        payload = dataclasses.asdict(self)
        payload["graceful_ids"] = sorted(self.graceful_ids)
        # Keep fault-free payloads byte-identical to the pre-fault
        # format (and loadable by it): only ship these when populated.
        if not payload["stats_drops"]:
            del payload["stats_drops"]
        if not payload["events"]:
            del payload["events"]
        if not payload["perf_counters"]:
            del payload["perf_counters"]
        if not payload["obs_histograms"]:
            del payload["obs_histograms"]
        if not payload["obs_spans"]:
            del payload["obs_spans"]
        if not payload["obs_metrics"]:
            del payload["obs_metrics"]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "RunResult":
        """Rebuild a :class:`RunResult` written by :meth:`to_dict`."""
        data = dict(payload)
        data["outcomes"] = [NodeOutcome(**o) for o in data["outcomes"]]
        data["deaths"] = [
            DeathRecord(**{**d, "qdset_members": tuple(d["qdset_members"])})
            for d in data["deaths"]
        ]
        data["graceful_ids"] = frozenset(data["graceful_ids"])
        return cls(**data)
