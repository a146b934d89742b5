"""Declarative fault schedules.

A :class:`FaultSpec` is a frozen value object describing *what* should go
wrong in a run; :class:`repro.faults.model.FaultModel` interprets it
against a live simulation.  Specs ride inside
:class:`repro.experiments.scenario.Scenario`, so they are part of a
:class:`repro.experiments.sweep.RunSpec`'s content hash: two runs with
different fault schedules never share a cache entry, and a ``None`` (or
all-default) spec hashes identically to a pre-fault-layer scenario.

The CLI accepts a compact spec string (see :meth:`FaultSpec.parse`)::

    --faults loss=0.1,delay=0.02,jitter=0.01,churn=0.05
    --faults loss=0.2,crash=7@40,crash=9@30-60,cut=1+2+3@50-80
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.sim.rng import spawn_key


@dataclasses.dataclass(frozen=True, slots=True)
class CrashEvent:
    """Crash node ``node_id`` at ``at``; restart at ``restart_at`` if set.

    A crash is fail-stutter, not departure: the radio dies (the node
    neither sends nor receives and drops out of the connectivity graph)
    but protocol state survives, so a restarted node resumes with stale
    timers and replicas — exactly the stress ``T_d``/``T_r`` exist for.
    """

    node_id: int
    at: float
    restart_at: Optional[float]

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("CrashEvent.at must be non-negative")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ValueError("CrashEvent.restart_at must be after at")


@dataclasses.dataclass(frozen=True, slots=True)
class PartitionEvent:
    """Jam every link between ``group`` and the rest of the network.

    Active from ``at`` until ``heal_at``.  The cut acts at the transport
    layer (messages crossing it are lost), modelling adversarial loss or
    interference between two areas; it does not move nodes, so
    hello-derived knowledge still sees the whole network and failure
    must be discovered through timeouts.
    """

    group: Tuple[int, ...]
    at: float
    heal_at: float

    def __post_init__(self) -> None:
        if not self.group:
            raise ValueError("PartitionEvent.group must be non-empty")
        if self.heal_at <= self.at:
            raise ValueError("PartitionEvent.heal_at must be after at")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """Everything that can go wrong in one run.

    Attributes:
        loss_rate: per-hop i.i.d. probability a transmission is lost.
            A k-hop unicast survives with probability ``(1-p)^k``.
        extra_delay: fixed extra delivery latency in seconds.
        jitter: additional uniform-random latency in ``[0, jitter)``.
        link_churn_rate: probability a given link is down during a given
            time bucket (bursty, correlated loss — all traffic between
            the two endpoints is dropped for the whole bucket).
        link_churn_period: bucket length in seconds for link churn.
        crashes: node crash/restart schedule.
        partitions: timed transport-level partition/heal schedule.
    """

    loss_rate: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0
    link_churn_rate: float = 0.0
    link_churn_period: float = 10.0
    crashes: Tuple[CrashEvent, ...] = ()
    partitions: Tuple[PartitionEvent, ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss_rate", "link_churn_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"FaultSpec.{name} must be in [0, 1)")
        for name in ("extra_delay", "jitter"):
            if getattr(self, name) < 0:
                raise ValueError(f"FaultSpec.{name} must be non-negative")
        if self.link_churn_period <= 0:
            raise ValueError("FaultSpec.link_churn_period must be positive")

    # ------------------------------------------------------------------
    def is_null(self) -> bool:
        """True when this spec injects no faults at all.

        A null spec behaves identically to running without a fault
        model (the determinism tests assert this), so scenarios carrying
        one keep their pre-fault-layer sweep cache keys.
        """
        return (
            self.loss_rate == 0.0
            and self.extra_delay == 0.0
            and self.jitter == 0.0
            and self.link_churn_rate == 0.0
            and not self.crashes
            and not self.partitions
        )

    # ------------------------------------------------------------------
    # CLI spec-string parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Build a spec from a ``key=value,key=value`` CLI string.

        Keys: ``loss``, ``delay``, ``jitter``, ``churn``,
        ``churn_period``, ``crash=ID@DOWN[-UP]`` (repeatable) and
        ``cut=ID+ID+...@START-END`` (repeatable).
        """
        scalars: Dict[str, float] = {}
        crashes = []
        cuts = []
        for item in filter(None, (part.strip() for part in text.split(","))):
            if "=" not in item:
                raise ValueError(
                    f"bad fault spec item {item!r}: expected key=value")
            key, _, value = item.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key == "crash":
                crashes.append(cls._parse_crash(value))
            elif key == "cut":
                cuts.append(cls._parse_cut(value))
            elif key in ("loss", "delay", "jitter", "churn", "churn_period"):
                scalars[key] = float(value)
            else:
                raise ValueError(
                    f"unknown fault spec key {key!r}; expected one of "
                    "loss, delay, jitter, churn, churn_period, crash, cut")
        return cls(
            loss_rate=scalars.get("loss", 0.0),
            extra_delay=scalars.get("delay", 0.0),
            jitter=scalars.get("jitter", 0.0),
            link_churn_rate=scalars.get("churn", 0.0),
            link_churn_period=scalars.get("churn_period", 10.0),
            crashes=tuple(crashes),
            partitions=tuple(cuts),
        )

    @staticmethod
    def _parse_crash(value: str) -> CrashEvent:
        try:
            node, _, window = value.partition("@")
            down, _, up = window.partition("-")
            return CrashEvent(
                node_id=int(node), at=float(down),
                restart_at=float(up) if up else None)
        except ValueError as exc:
            raise ValueError(
                f"bad crash spec {value!r}: expected ID@DOWN or ID@DOWN-UP"
            ) from exc

    @staticmethod
    def _parse_cut(value: str) -> PartitionEvent:
        try:
            ids, _, window = value.partition("@")
            start, _, end = window.partition("-")
            return PartitionEvent(
                group=tuple(int(i) for i in ids.split("+")),
                at=float(start), heal_at=float(end))
        except ValueError as exc:
            raise ValueError(
                f"bad cut spec {value!r}: expected ID+ID+...@START-END"
            ) from exc


def crash_schedule(
    num_nodes: int,
    fraction: float,
    at: float,
    window: float = 20.0,
    downtime: Optional[float] = 30.0,
    seed: int = 0,
) -> Tuple[CrashEvent, ...]:
    """A deterministic crash/restart schedule over ``num_nodes`` nodes.

    Picks ``round(fraction * num_nodes)`` victims and spreads their
    crashes over ``[at, at + window)``; each restarts ``downtime``
    seconds later (``None`` = never).  Victim choice and timing are pure
    functions of ``(seed, num_nodes)`` via :func:`spawn_key`, so the
    schedule is reproducible and cache-safe.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    count = int(round(fraction * num_nodes))
    ranked = sorted(
        range(num_nodes),
        key=lambda nid: spawn_key(seed, "crash-pick", nid))
    events = []
    for index, node_id in enumerate(sorted(ranked[:count])):
        offset = (spawn_key(seed, "crash-time", index) % 10_000) / 10_000.0
        down = at + offset * window
        events.append(CrashEvent(
            node_id=node_id, at=down,
            restart_at=down + downtime if downtime is not None else None))
    return tuple(events)
