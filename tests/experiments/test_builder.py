"""Tests for the fluent ScenarioBuilder."""

import pytest

from repro.experiments.builder import (
    ScenarioBuilder,
    fill_defaults,
    paper_scenario,
    scenario_grid,
)
from repro.experiments.scenario import Scenario
from repro.faults import FaultSpec


def test_empty_builder_matches_paper_default():
    assert ScenarioBuilder().build() == Scenario.paper_default()


def test_fluent_chain_matches_explicit_scenario():
    built = (ScenarioBuilder()
             .nodes(80).seed(3).range(200.0).speed(10.0)
             .area(2000.0, 1000.0)
             .arrivals(inter_arrival=2.0, connected=False,
                       uniform_fraction=0.2)
             .departures(fraction=0.4, abrupt=0.5, after=10.0, window=30.0)
             .hotspot(500.0, 500.0, radius=50.0)
             .settle(45.0)
             .build())
    assert built == Scenario(
        num_nodes=80, seed=3, transmission_range=200.0, speed_mps=10.0,
        area=(2000.0, 1000.0), inter_arrival=2.0, connected_arrivals=False,
        uniform_arrival_fraction=0.2, depart_fraction=0.4,
        abrupt_probability=0.5, depart_after=10.0, depart_window=30.0,
        hotspot=(500.0, 500.0), hotspot_radius=50.0, settle_time=45.0,
    )


def test_paper_scenario_matches_paper_default():
    assert paper_scenario(num_nodes=150, seed=2, settle_time=10.0) == \
        Scenario.paper_default(num_nodes=150, seed=2, settle_time=10.0)


def test_scenario_grid_order_and_content():
    grid = scenario_grid((50, 100), (1, 2), settle_time=5.0)
    assert [(s.num_nodes, s.seed) for s in grid] == [
        (50, 1), (50, 2), (100, 1), (100, 2)]
    assert all(s.settle_time == 5.0 for s in grid)


# ---------------------------------------------------------------------------
# Validation errors name the offending field
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("build,field", [
    (lambda b: b.nodes(0), "num_nodes"),
    (lambda b: b.range(-1.0), "transmission_range"),
    (lambda b: b.speed(-5.0), "speed_mps"),
    (lambda b: b.area(0.0, 100.0), "area"),
    (lambda b: b.arrivals(inter_arrival=0.0), "inter_arrival"),
    (lambda b: b.arrivals(uniform_fraction=1.5), "uniform_fraction"),
    (lambda b: b.departures(fraction=1.2), "fraction"),
    (lambda b: b.departures(fraction=0.5, abrupt=-0.1), "abrupt"),
    (lambda b: b.hotspot(1.0, 2.0, radius=0.0), "radius"),
    (lambda b: b.settle(-1.0), "settle_time"),
])
def test_validation_names_bad_field(build, field):
    with pytest.raises(ValueError, match=field):
        build(ScenarioBuilder())


def test_unknown_override_field_rejected():
    with pytest.raises(ValueError, match="no_such_field"):
        ScenarioBuilder().overrides(no_such_field=1)


# ---------------------------------------------------------------------------
# Fault attachment
# ---------------------------------------------------------------------------
def test_faults_by_kwargs_and_by_spec():
    by_kwargs = ScenarioBuilder().faults(loss_rate=0.1).build()
    by_spec = ScenarioBuilder().faults(FaultSpec(loss_rate=0.1)).build()
    assert by_kwargs.faults == by_spec.faults == FaultSpec(loss_rate=0.1)


def test_faults_spec_and_kwargs_together_rejected():
    with pytest.raises(ValueError, match="not both"):
        ScenarioBuilder().faults(FaultSpec(), loss_rate=0.1)


def test_null_faults_normalized_to_none():
    assert ScenarioBuilder().faults(FaultSpec()).build().faults is None


def test_fill_defaults_sets_only_fields_left_at_their_default():
    defaults = {"faults": FaultSpec(loss_rate=0.2), "trace": True,
                "metrics": True, "metrics_period": 2.5}
    filled = fill_defaults(paper_scenario(num_nodes=10, seed=4), defaults)
    assert filled == Scenario(num_nodes=10, seed=4, **defaults)
    # Nothing to fill: the scenario comes back as it was.
    scenario = paper_scenario(num_nodes=10)
    assert fill_defaults(scenario, None) is scenario
    assert fill_defaults(scenario, {}) is scenario
    assert fill_defaults(filled, defaults) is filled
    # Nothing process-wide: a scenario built afterwards is untouched.
    assert ScenarioBuilder().build() == Scenario.paper_default()


def test_explicit_faults_beat_the_default():
    built = ScenarioBuilder().faults(loss_rate=0.05).metrics(period=4.0) \
        .build()
    filled = fill_defaults(built, {"faults": FaultSpec(loss_rate=0.2),
                                   "metrics_period": 2.5, "trace": True})
    assert filled.faults == FaultSpec(loss_rate=0.05)
    assert filled.metrics_period == 4.0
    assert filled.trace is True

