"""Scenario definition validation."""

import dataclasses

import pytest

from repro.experiments import RunSpec, Scenario
from repro.experiments.scenario import fill_defaults
from repro.faults import FaultSpec


def test_paper_default_matches_section_vi():
    scenario = Scenario.paper_default()
    assert scenario.area == (1000.0, 1000.0)
    assert scenario.transmission_range == 150.0
    assert scenario.speed_mps == 20.0


def test_paper_default_overrides():
    scenario = Scenario.paper_default(num_nodes=50, seed=7,
                                      transmission_range=200.0)
    assert scenario.num_nodes == 50
    assert scenario.seed == 7
    assert scenario.transmission_range == 200.0


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        Scenario(num_nodes=0)
    with pytest.raises(ValueError):
        Scenario(transmission_range=0)
    with pytest.raises(ValueError):
        Scenario(depart_fraction=2.0)
    with pytest.raises(ValueError):
        Scenario(abrupt_probability=-0.5)
    with pytest.raises(ValueError):
        Scenario(depart_after=-100.0)
    with pytest.raises(ValueError):
        Scenario(depart_window=-1.0)


# ---------------------------------------------------------------------------
# Scenario is its own validator: errors name the offending field
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fields, named", [pytest.param(f, n, id=n) for f, n in [
    ({"num_nodes": 0}, "num_nodes"),
    ({"transmission_range": -1.0}, "transmission_range"),
    ({"speed_mps": -5.0}, "speed_mps"),
    ({"area": (0.0, 100.0)}, "area"),
    ({"inter_arrival": 0.0}, "inter_arrival"),
    ({"uniform_arrival_fraction": 1.5}, "uniform_arrival_fraction"),
    ({"depart_fraction": 1.2}, "depart_fraction"),
    ({"depart_fraction": 0.5, "abrupt_probability": -0.1},
     "abrupt_probability"),
    ({"hotspot": (1.0, 2.0), "hotspot_radius": 0.0}, "hotspot_radius"),
    ({"settle_time": -1.0}, "settle_time"),
    ({"depart_fraction": 0.5, "depart_after": -8.0}, "depart_after"),
    ({"depart_fraction": 0.5, "depart_window": -1.0}, "depart_window"),
    ({"metrics": True, "metrics_period": 0.0}, "metrics_period"),
]])
def test_validation_names_bad_field(fields, named):
    with pytest.raises(ValueError, match=named):
        Scenario(**fields)
    # The same check guards every way a scenario is made.
    with pytest.raises(ValueError, match=named):
        dataclasses.replace(Scenario(), **fields)


def test_boundary_values_are_accepted():
    Scenario(num_nodes=1, speed_mps=0.0, settle_time=0.0,
             depart_fraction=1.0, abrupt_probability=0.0,
             depart_after=0.0, depart_window=0.0,
             uniform_arrival_fraction=0.0)


def test_unknown_field_rejected():
    with pytest.raises(TypeError, match="no_such_field"):
        Scenario.paper_default(no_such_field=1)


# ---------------------------------------------------------------------------
# Fault attachment
# ---------------------------------------------------------------------------
def test_null_faults_normalized_to_none_and_keep_the_cache_key():
    null = Scenario(num_nodes=10, seed=4, faults=FaultSpec())
    assert null.faults is None
    assert null == Scenario(num_nodes=10, seed=4)
    assert dataclasses.replace(
        Scenario(), faults=FaultSpec(loss_rate=0.0)).faults is None
    # Pre-fault-layer scenarios serialized without a "faults" entry;
    # fault-free specs must keep hashing to those keys.
    assert RunSpec("quorum", null).key() == RunSpec(
        "quorum", Scenario(num_nodes=10, seed=4)).key()
    assert "faults" not in RunSpec("quorum", null).to_dict()["scenario"]
    lossy = Scenario(num_nodes=10, seed=4, faults=FaultSpec(loss_rate=0.1))
    assert lossy.faults == FaultSpec(loss_rate=0.1)
    assert RunSpec("quorum", lossy).key() != RunSpec("quorum", null).key()


def test_fill_defaults_sets_only_fields_left_at_their_default():
    defaults = {"faults": FaultSpec(loss_rate=0.2), "trace": True,
                "metrics": True, "metrics_period": 2.5}
    filled = fill_defaults(Scenario(num_nodes=10, seed=4), defaults)
    assert filled == Scenario(num_nodes=10, seed=4, **defaults)
    # Nothing to fill: the scenario comes back as it was.
    scenario = Scenario(num_nodes=10)
    assert fill_defaults(scenario, None) is scenario
    assert fill_defaults(scenario, {}) is scenario
    assert fill_defaults(filled, defaults) is filled
    # Nothing process-wide: a scenario built afterwards is untouched.
    assert Scenario() == Scenario.paper_default()


def test_explicit_faults_beat_the_default():
    built = Scenario(faults=FaultSpec(loss_rate=0.05), metrics=True,
                     metrics_period=4.0)
    filled = fill_defaults(built, {"faults": FaultSpec(loss_rate=0.2),
                                   "metrics_period": 2.5, "trace": True})
    assert filled.faults == FaultSpec(loss_rate=0.05)
    assert filled.metrics_period == 4.0
    assert filled.trace is True
