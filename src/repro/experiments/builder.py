"""Fluent scenario construction with validation and fault attachment.

Scenario/run-spec construction used to be scattered across
``figures.py``, ``runner.py``, ``sweep.py`` and the CLI as ad-hoc
``Scenario.paper_default(...)`` calls.  :class:`ScenarioBuilder`
centralizes it: fluent setters with paper defaults, validation errors
that name the offending field, and — crucially for the fault layer —
one place where fault schedules attach.  :func:`fill_defaults` layers
caller-supplied defaults (the CLI's ``--faults`` / ``--trace`` /
``--metrics`` flags) under whatever a built scenario already set, so an
entire figure sweep can be rerun under loss without touching any figure
code.

Example::

    scenario = (ScenarioBuilder()
                .nodes(100).seed(3).range(150.0).speed(20.0)
                .departures(fraction=0.4, abrupt=0.5, window=5.0)
                .faults(loss_rate=0.1)
                .settle(30.0)
                .build())
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.experiments.scenario import Scenario
from repro.faults.spec import FaultSpec

_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Scenario)}


class ScenarioBuilder:
    """Builds :class:`Scenario` objects field by field.

    Unset fields keep the Section VI-A paper defaults.  Unknown field
    names and out-of-domain values raise ``ValueError`` naming the bad
    field at the call site, not deep inside a figure sweep.
    """

    def __init__(self) -> None:
        self._fields: Dict[str, Any] = {}
        self._faults: Optional[FaultSpec] = None

    # ------------------------------------------------------------------
    # Fluent setters
    # ------------------------------------------------------------------
    def _set(self, field: str, value: Any) -> "ScenarioBuilder":
        if field not in _FIELD_DEFAULTS:
            raise ValueError(
                f"ScenarioBuilder: unknown scenario field {field!r}")
        self._fields[field] = value
        return self

    def nodes(self, num_nodes: int) -> "ScenarioBuilder":
        if num_nodes < 1:
            raise ValueError(
                f"ScenarioBuilder.nodes: num_nodes must be >= 1, got {num_nodes}")
        return self._set("num_nodes", num_nodes)

    def seed(self, seed: int) -> "ScenarioBuilder":
        return self._set("seed", seed)

    def area(self, width: float, height: float) -> "ScenarioBuilder":
        if width <= 0 or height <= 0:
            raise ValueError(
                f"ScenarioBuilder.area: dimensions must be positive, "
                f"got ({width}, {height})")
        return self._set("area", (width, height))

    def range(self, transmission_range: float) -> "ScenarioBuilder":
        if transmission_range <= 0:
            raise ValueError(
                "ScenarioBuilder.range: transmission_range must be "
                f"positive, got {transmission_range}")
        return self._set("transmission_range", transmission_range)

    def speed(self, speed_mps: float) -> "ScenarioBuilder":
        if speed_mps < 0:
            raise ValueError(
                f"ScenarioBuilder.speed: speed_mps must be >= 0, got {speed_mps}")
        return self._set("speed_mps", speed_mps)

    def arrivals(
        self,
        inter_arrival: Optional[float] = None,
        connected: Optional[bool] = None,
        uniform_fraction: Optional[float] = None,
    ) -> "ScenarioBuilder":
        if inter_arrival is not None:
            if inter_arrival <= 0:
                raise ValueError(
                    "ScenarioBuilder.arrivals: inter_arrival must be "
                    f"positive, got {inter_arrival}")
            self._set("inter_arrival", inter_arrival)
        if connected is not None:
            self._set("connected_arrivals", connected)
        if uniform_fraction is not None:
            if not 0 <= uniform_fraction <= 1:
                raise ValueError(
                    "ScenarioBuilder.arrivals: uniform_fraction must be "
                    f"in [0, 1], got {uniform_fraction}")
            self._set("uniform_arrival_fraction", uniform_fraction)
        return self

    def departures(
        self,
        fraction: float,
        abrupt: float = 0.0,
        after: Optional[float] = None,
        window: Optional[float] = None,
    ) -> "ScenarioBuilder":
        if not 0 <= fraction <= 1:
            raise ValueError(
                f"ScenarioBuilder.departures: fraction must be in [0, 1], "
                f"got {fraction}")
        if not 0 <= abrupt <= 1:
            raise ValueError(
                f"ScenarioBuilder.departures: abrupt must be in [0, 1], "
                f"got {abrupt}")
        self._set("depart_fraction", fraction)
        self._set("abrupt_probability", abrupt)
        if after is not None:
            self._set("depart_after", after)
        if window is not None:
            self._set("depart_window", window)
        return self

    def hotspot(self, x: float, y: float,
                radius: Optional[float] = None) -> "ScenarioBuilder":
        self._set("hotspot", (x, y))
        if radius is not None:
            if radius <= 0:
                raise ValueError(
                    f"ScenarioBuilder.hotspot: radius must be positive, "
                    f"got {radius}")
            self._set("hotspot_radius", radius)
        return self

    def settle(self, settle_time: float) -> "ScenarioBuilder":
        if settle_time < 0:
            raise ValueError(
                "ScenarioBuilder.settle: settle_time must be >= 0, "
                f"got {settle_time}")
        return self._set("settle_time", settle_time)

    def faults(self, spec: Optional[FaultSpec] = None,
               **spec_fields: Any) -> "ScenarioBuilder":
        """Attach a fault schedule: a ready spec or FaultSpec kwargs."""
        if spec is not None and spec_fields:
            raise ValueError(
                "ScenarioBuilder.faults: pass a FaultSpec or keyword "
                "fields, not both")
        self._faults = spec if spec is not None else FaultSpec(**spec_fields)
        return self

    def trace(self, enabled: bool = True) -> "ScenarioBuilder":
        """Record structured protocol events during the run."""
        return self._set("trace", enabled)

    def metrics(self, enabled: bool = True,
                period: Optional[float] = None) -> "ScenarioBuilder":
        """Sample run-level gauges on a fixed sim-time cadence."""
        self._set("metrics", enabled)
        if period is not None:
            if period <= 0:
                raise ValueError(
                    f"ScenarioBuilder.metrics: period must be positive, "
                    f"got {period}")
            self._set("metrics_period", period)
        return self

    def overrides(self, **fields: Any) -> "ScenarioBuilder":
        """Set raw scenario fields by name (validated against Scenario)."""
        for name, value in fields.items():
            if name == "faults":
                self.faults(value)
            else:
                self._set(name, value)
        return self

    # ------------------------------------------------------------------
    def build(self) -> Scenario:
        """Materialize the scenario (paper defaults for unset fields).

        A null fault spec is dropped so fault-free runs keep their
        pre-fault cache keys."""
        fields = dict(self._fields)
        if self._faults is not None and not self._faults.is_null():
            fields["faults"] = self._faults
        return Scenario(**fields)


def fill_defaults(scenario: Scenario,
                  defaults: Optional[Mapping[str, Any]]) -> Scenario:
    """``scenario`` with ``defaults`` applied to the fields it left unset.

    ``defaults`` maps :class:`Scenario` field names to values; a field
    is replaced only while it still holds its dataclass default, so a
    figure that attaches its own ``FaultSpec`` keeps it under
    ``--faults``.
    """
    unset = {name: value for name, value in (defaults or {}).items()
             if getattr(scenario, name) == _FIELD_DEFAULTS[name]}
    return dataclasses.replace(scenario, **unset) if unset else scenario


def paper_scenario(num_nodes: int = 100, seed: int = 0,
                   **overrides: Any) -> Scenario:
    """Builder-backed equivalent of :meth:`Scenario.paper_default`.

    The Section VI-A setup (1 km², tr = 150 m, 20 m/s) plus named
    overrides, validated by the builder.
    """
    return (ScenarioBuilder()
            .nodes(num_nodes)
            .seed(seed)
            .overrides(**overrides)
            .build())


def scenario_grid(
    sizes: Tuple[int, ...],
    seeds: Tuple[int, ...],
    **overrides: Any,
) -> Tuple[Scenario, ...]:
    """The ``sizes x seeds`` scenario grid (seeds vary fastest)."""
    return tuple(
        paper_scenario(num_nodes=n, seed=s, **overrides)
        for n in sizes for s in seeds
    )
