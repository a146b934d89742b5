"""Scenario definitions matching the paper's simulation setup.

Section VI-A: nodes in a 1 km x 1 km area, transmission range 150 m
(swept in Figs. 6-7, 12), 50-200 nodes arriving sequentially, moving at
20 m/s after configuration (speed swept in Fig. 11), departing
gracefully or abruptly with abrupt probability 5-50 % (Fig. 13).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional, Tuple

from repro.faults.spec import FaultSpec


@dataclasses.dataclass
class Scenario:
    """A complete workload description.

    Attributes:
        num_nodes: network size.
        area: (width, height) in meters.
        transmission_range: radio range in meters.
        speed_mps: random-waypoint speed once configured (0 = static).
        inter_arrival: mean inter-arrival spacing in seconds.
        depart_fraction: fraction of nodes that eventually depart.
        abrupt_probability: probability a departure is abrupt.
        depart_after: earliest departure, seconds after the last arrival.
        depart_window: departures spread uniformly over this many seconds.
        hotspot: if set, (x, y) of a hot spot all arrivals cluster
            around (the paper's "enter at the same spot" stress).
        hotspot_radius: arrival radius around the hot spot.
        connected_arrivals: when True (default), most arrivals appear
            within radio range of an existing node — modelling nodes
            *joining* the network, the paper's implicit assumption (at
            tr = 150 m and nn = 50, uniform placement is far below the
            connectivity threshold and every protocol fragments).
        uniform_arrival_fraction: with connected arrivals, this share
            of nodes still appears uniformly at random, seeding growth
            across the whole area.
        settle_time: extra simulated seconds after the last scheduled
            event, letting reclamation/synchronization play out.
        seed: master seed; every random stream derives from it.
        faults: optional fault-injection schedule (loss, latency, link
            churn, crashes, cuts) applied on top of the workload; see
            :mod:`repro.faults`.  ``None`` — the default — keeps the
            transport perfectly reliable, and such scenarios hash to
            the same sweep-cache key as before the fault layer existed.
        trace: record structured protocol events (:mod:`repro.obs`)
            during the run; span latency histograms and outcome counts
            land on the :class:`~repro.experiments.metrics.RunResult`.
            ``False`` — the default — keeps the event bus empty (zero
            overhead) and the sweep-cache key unchanged.
        metrics: sample run-level gauges (role counts, pool
            utilization, component count, message rates — see
            :mod:`repro.obs.metrics`) on a fixed sim-time cadence; the
            series land on ``RunResult.obs_metrics``.  ``False`` — the
            default — schedules nothing (zero overhead) and keeps the
            sweep-cache key byte-identical to the pre-metrics layout.
        metrics_period: sampling cadence in simulated seconds (only
            meaningful with ``metrics=True``).
    """

    num_nodes: int = 100
    area: Tuple[float, float] = (1000.0, 1000.0)
    transmission_range: float = 150.0
    speed_mps: float = 20.0
    inter_arrival: float = 1.0
    depart_fraction: float = 0.0
    abrupt_probability: float = 0.0
    depart_after: float = 5.0
    depart_window: float = 60.0
    hotspot: Optional[Tuple[float, float]] = None
    hotspot_radius: float = 100.0
    connected_arrivals: bool = True
    uniform_arrival_fraction: float = 0.05
    settle_time: float = 30.0
    seed: int = 0
    faults: Optional[FaultSpec] = None
    trace: bool = False
    metrics: bool = False
    metrics_period: float = 1.0

    def __post_init__(self) -> None:
        """The one validator: every out-of-domain value is refused
        here, with a message that names its field."""
        for name in ("num_nodes", "transmission_range", "inter_arrival",
                     "hotspot_radius", "metrics_period"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")
        if min(self.area) <= 0:
            raise ValueError(
                f"area dimensions must be positive, got {self.area}")
        for name in ("speed_mps", "settle_time"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("depart_fraction", "abrupt_probability",
                     "uniform_arrival_fraction"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(
                    f"{name} must be in [0, 1], got {getattr(self, name)}")
        # A spec that injects nothing is no spec: fault-free runs keep
        # their pre-fault cache keys and build no fault model.
        if self.faults is not None and self.faults.is_null():
            self.faults = None

    @classmethod
    def paper_default(cls, num_nodes: int = 100, seed: int = 0,
                      **overrides) -> "Scenario":
        """The Section VI-A setup: 1 km^2, tr=150 m, 20 m/s."""
        return cls(num_nodes=num_nodes, seed=seed, **overrides)


_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Scenario)}


def fill_defaults(scenario: Scenario,
                  defaults: Optional[Mapping[str, Any]]) -> Scenario:
    """``scenario`` with ``defaults`` applied to the fields it left unset.

    ``defaults`` maps :class:`Scenario` field names to values (the
    CLI's ``--faults`` / ``--trace`` / ``--metrics`` flags); a field is
    replaced only while it still holds its dataclass default, so a
    figure that attaches its own ``FaultSpec`` keeps it under
    ``--faults``.
    """
    unset = {name: value for name, value in (defaults or {}).items()
             if getattr(scenario, name) == _FIELD_DEFAULTS[name]}
    return dataclasses.replace(scenario, **unset) if unset else scenario
