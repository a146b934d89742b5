"""Determinism and cache-safety guarantees of fault injection.

The acceptance bar for the fault layer:

* same seed + same fault spec => byte-identical results, serial or
  parallel (the sweep cache stays sound under fault-injected sweeps);
* a null fault spec behaves exactly like running with no fault model at
  all, and hashes to the same sweep-cache key — so the entire pre-fault
  corpus of cached runs stays valid.
"""

import json

from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import RunSpec, SweepExecutor
from repro.faults import FaultSpec, crash_schedule


def small_scenario(faults=None, seed=3):
    scenario = Scenario(
        num_nodes=14, seed=seed, depart_fraction=0.3,
        abrupt_probability=0.5, depart_window=10.0, settle_time=20.0,
    )
    # Attached after construction: ``Scenario(faults=...)`` drops a null
    # spec, and the null-spec cases below are about a fault model that
    # was built and never acts.
    scenario.faults = faults
    return scenario


def faulty_spec(seed=3):
    return FaultSpec(
        loss_rate=0.15,
        extra_delay=0.01,
        jitter=0.005,
        crashes=crash_schedule(14, 0.2, at=20.0, window=5.0,
                               downtime=15.0, seed=seed),
    )


def payload(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def test_same_seed_same_spec_byte_identical():
    a = ScenarioRunner(small_scenario(faulty_spec()), "quorum").run()
    b = ScenarioRunner(small_scenario(faulty_spec()), "quorum").run()
    assert payload(a) == payload(b)


def test_serial_and_parallel_sweeps_byte_identical():
    specs = [
        RunSpec(protocol=proto, scenario=small_scenario(faulty_spec(s), s))
        for proto in ("quorum", "manetconf") for s in (1, 2)
    ]
    serial = SweepExecutor(workers=1).run(specs)
    parallel = SweepExecutor(workers=2).run(specs)
    assert [payload(c.result) for c in serial] == \
        [payload(c.result) for c in parallel]


def test_null_spec_identical_to_no_fault_model():
    plain = ScenarioRunner(small_scenario(None), "quorum").run()
    null = ScenarioRunner(small_scenario(FaultSpec()), "quorum").run()
    assert payload(plain) == payload(null)


def test_loss_zero_spec_identical_to_no_faults():
    # loss_rate=0 with no other fault either: the model is consulted
    # but never acts, and never advances any RNG stream.
    plain = ScenarioRunner(small_scenario(None), "manetconf").run()
    zero = ScenarioRunner(
        small_scenario(FaultSpec(loss_rate=0.0)), "manetconf").run()
    assert payload(plain) == payload(zero)


def test_cache_key_unchanged_by_null_faults():
    # Pre-fault-layer scenarios serialized without a "faults" entry;
    # fault-free specs must keep hashing to those keys.
    bare = RunSpec(protocol="quorum", scenario=small_scenario(None))
    null = RunSpec(protocol="quorum", scenario=small_scenario(FaultSpec()))
    assert "faults" not in bare.to_dict()["scenario"]
    assert bare.key() == null.key()


def test_cache_key_depends_on_fault_spec():
    bare = RunSpec(protocol="quorum", scenario=small_scenario(None))
    lossy = RunSpec(protocol="quorum",
                    scenario=small_scenario(FaultSpec(loss_rate=0.1)))
    lossier = RunSpec(protocol="quorum",
                      scenario=small_scenario(FaultSpec(loss_rate=0.2)))
    assert len({bare.key(), lossy.key(), lossier.key()}) == 3


def test_fault_results_round_trip_through_cache_format(tmp_path):
    from repro.experiments.sweep import RunCache

    spec = RunSpec(protocol="quorum",
                   scenario=small_scenario(faulty_spec()))
    result = ScenarioRunner(spec.scenario, "quorum").run()
    assert result.events.get("fault_crashes", 0) > 0
    cache = RunCache(tmp_path)
    cache.put(spec, result)
    restored = cache.get(spec)
    assert restored is not None
    assert payload(restored) == payload(result)


def test_pre_fault_cache_entries_still_load(tmp_path):
    """An old cache entry (no stats_drops/events keys) deserializes."""
    from repro.experiments.metrics import RunResult
    from repro.experiments.sweep import RunCache

    spec = RunSpec(protocol="quorum", scenario=small_scenario(None))
    result = ScenarioRunner(spec.scenario, "quorum").run()
    old_payload = result.to_dict()
    # No fault model ran, so no drops key is shipped ("events" may
    # still appear: quorum self-repair fires under plain abrupt
    # departures too).  Simulate a pre-fault-layer cache entry by
    # stripping both keys; from_dict must default them to empty.
    assert "stats_drops" not in old_payload
    old_payload.pop("events", None)
    restored = RunResult.from_dict(json.loads(json.dumps(old_payload)))
    assert restored.stats_drops == {}
    assert restored.events == {}
    cache = RunCache(tmp_path)
    cache.put(spec, result)
    assert cache.get(spec) is not None
