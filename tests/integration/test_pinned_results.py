"""Whole-run results pinned across the engine's ordering machinery.

Tuple heap entries and cohort timers reorder nothing the protocol can
observe; two seeded quorum runs — one mobile, one static with 5 % loss,
the ledger's join cells in miniature — must therefore serialize to the
same bytes as before those changes.  The hashes are what the commit
*preceding* them produced.  ``conn_label_hits`` is left out of the
hashed payload: it counts component-label lookups, which the protocol
is free to make fewer of (the merge scan reads the component table
once instead of twice), and nothing else in the result depends on it.
"""

import hashlib
import json

import pytest

from repro.experiments import Scenario, ScenarioRunner
from repro.faults.spec import FaultSpec
from repro.perf import counters as cnt

CELLS = {
    "mobile": (
        dict(),
        "ab52e8d63959f74c3c11ee830da580786f5afe31c2676dc13f2f9091aaa34215"),
    "static_lossy": (
        dict(speed_mps=0.0, faults=FaultSpec(loss_rate=0.05)),
        "e3cacdef3dfbc01fa303a71d0bc46dabc837f3336a2fcbd75afb81447ece03b5"),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_quorum_run_result_hash_is_pinned(cell):
    extra, pinned = CELLS[cell]
    scenario = Scenario(num_nodes=40, seed=7, depart_fraction=0.3,
                        abrupt_probability=0.3, **extra)
    payload = ScenarioRunner(scenario, "quorum").run().to_dict()
    assert payload["perf_counters"].pop(cnt.CONN_LABEL_HITS) > 0
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == pinned
