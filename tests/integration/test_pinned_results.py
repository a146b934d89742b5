"""Whole-run results pinned across the engine's ordering machinery.

Tuple heap entries and cohort timers reorder nothing the protocol can
observe; two seeded quorum runs — one mobile, one static with 5 % loss,
the ledger's join cells in miniature — must therefore serialize to the
same bytes as before those changes.  The hashes are what the commit
*preceding* them produced.  ``conn_label_hits`` is left out of the
hashed payload: it counts component-label lookups, which the protocol
is free to make fewer of (the merge scan reads the component table
once instead of twice; the table build and the QDSet audit each ask
one batched question), and nothing else in the result depends on it.

The four ``bfs_*`` counters are left out for the same reason: they
count how the substrate *searched* for a hop answer, not the answer.
Target-terminated ``hops``/``nearest`` redefined them (pair and
nearest searches count as ``bfs_calls``; ``bfs_unbounded`` counts
floods only), so the current pins are the parent commit's payload
minus those keys — reproduced bit for bit by the new search.

``conn_split_slots_scanned`` is one more of the kind: it counts the
slots a delta relabel *read* to prove that a component did not split,
and the labels it proves are the same however few it reads.  Only the
static cell has it — in the mobile cell every refresh moves everyone,
so every relabel is a full one.

What the hashes cannot pin, a budget bounds: each popped counter must
stay positive and within its cell's inline budget — the value measured
when the budget was written, times 1.25, rounded up.  A change that
makes the substrate search less lowers the budget in the same commit;
one that makes it search 25 % more fails here.

The result hashes cannot see the order of emissions or the attempt ids,
so each cell is also run traced and the sha256 of its JSONL event
stream is pinned beside them.

The six baselines run both cells too, through the agent base they
share with the quorum agent; their hashes leave out the same search
counters (without budgets: only the substrate's search effort is
unpinned) and were taken before that base was shared.
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
        "65f6c4e26ba6d0da2156286805d7f014ce2d40c5a69852e53a5daa7d608cdeb8",
        {cnt.CONN_LABEL_HITS: 3969, cnt.BFS_CALLS: 4530,
         cnt.BFS_CACHE_HITS: 1054, cnt.BFS_NODES_EXPANDED: 18319},
        "2bc9fcdc528ca5902c8d58dbe47968201142b60b7f244bfc9806200074ac8b4e"),
    "static_lossy": (
        dict(speed_mps=0.0, faults=FaultSpec(loss_rate=0.05)),
        "bb5adedd0b311c98d6ad325d918bb4e797adba5eb0fab000ffafc9418d3cf9d4",
        {cnt.CONN_LABEL_HITS: 3084, cnt.BFS_CALLS: 1123,
         cnt.BFS_CACHE_HITS: 2373, cnt.BFS_NODES_EXPANDED: 5673,
         cnt.CONN_SPLIT_SLOTS_SCANNED: 59},
        "5e52007da5574b648aeaef1c632734f9fa9242a0d138a4ec8a4cf152ae017580"),
}


BASELINE_PINS = {
    ("manetconf", "mobile"):
        "3eb958739529520ac3445cba8163975af83706a14567327fe89a7f4b8ae14067",
    ("manetconf", "static_lossy"):
        "730531a1e8e986a9256b98330e00df5528902d6cc4a6e76364b201d269de6467",
    ("buddy", "mobile"):
        "bd9f7a756fd5ef1bdcade31a406d418698b24db9c6ac8f514f2dd1d4f2cf1338",
    ("buddy", "static_lossy"):
        "24244f399b094eb635fce1d2bdc466bbd80ff56a63b1b4008d78bf21ebb6fe83",
    ("ctree", "mobile"):
        "2b6fbd5e7136c8dcf4f629cb4c0dddd011f580193a2dff25263917e707af661b",
    ("ctree", "static_lossy"):
        "d93085dea88f84f1a7f611106e878a694dc7b0bfb4971de05d6ec00364378fb4",
    ("dad", "mobile"):
        "f7b48663378c029cd851552481b4258f08956cffa0a19f428a0dabd1e82c39ca",
    ("dad", "static_lossy"):
        "baac1812bbd83d7592899b58a108b6c2a0d6d9d7d0177d4333cacab912979e88",
    ("weakdad", "mobile"):
        "83678cf5da469c4e270e08031696f6dcee075407e353e746ee3d509d63c0bd22",
    ("weakdad", "static_lossy"):
        "5db4ecb709415709370782cc74da463194a683b6218462728c65e26ad234b84a",
    ("prophet", "mobile"):
        "c465f46a51f72a1d71c600084d6989c48c0324563bbef88c87d073789e464073",
    ("prophet", "static_lossy"):
        "c923ae04742e30fe4ab29a61fdf2e7393ec5bea48ff48f4efe04fd076ae01944",
}


def cell_scenario(cell, **overrides):
    return Scenario(num_nodes=40, seed=7, depart_fraction=0.3,
                    abrupt_probability=0.3, **CELLS[cell][0], **overrides)


def payload_digest(payload):
    # Floods only: the static quorum cell's two floods are both bounded.
    payload["perf_counters"].pop(cnt.BFS_UNBOUNDED, None)
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_quorum_run_result_hash_is_pinned(cell):
    _extra, pinned, budgets, _trace = CELLS[cell]
    payload = ScenarioRunner(cell_scenario(cell), "quorum").run().to_dict()
    counters = payload["perf_counters"]
    for name, budget in budgets.items():
        assert 0 < counters.pop(name) <= budget, name
    assert payload_digest(payload) == pinned


@pytest.mark.parametrize("protocol, cell", sorted(BASELINE_PINS))
def test_baseline_run_result_hash_is_pinned(protocol, cell):
    payload = ScenarioRunner(cell_scenario(cell), protocol).run().to_dict()
    # The static cell's budgets name every search counter a pin pops.
    for name in CELLS["static_lossy"][2]:
        payload["perf_counters"].pop(name, None)
    assert payload_digest(payload) == BASELINE_PINS[protocol, cell]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_quorum_trace_digest_is_pinned(cell):
    runner = ScenarioRunner(cell_scenario(cell, trace=True), "quorum")
    runner.run()
    digest = hashlib.sha256(
        runner.recorder.to_jsonl().encode("utf-8")).hexdigest()
    assert digest == CELLS[cell][3]
