"""Whole-run results pinned across the engine's ordering machinery.

Tuple heap entries and cohort timers reorder nothing the protocol can
observe; two seeded quorum runs — one mobile, one static with 5 % loss,
the ledger's join cells in miniature — must therefore serialize to the
same bytes as before those changes.  The hashes are what the commit
*preceding* them produced.  ``conn_label_hits`` is left out of the
hashed payload: it counts component-label lookups, which the protocol
is free to make fewer of (the merge scan reads the component table
once instead of twice; the table build and the QDSet audit each ask
one batched question; a merge scan or audit that skips asks none),
and nothing else in the result depends on it.

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

The two ``*_crash`` cells add a crash/restart schedule to each: six of
the eight victims go down and come back, so the runs cross the liveness
paths (``node.alive`` flips followed by ``invalidate_nodes``) that the
derived component table and the periodic polls must follow.

The six baselines run the first two cells too, through the agent base they
share with the quorum agent; their hashes leave out the same search
counters (without budgets: only the substrate's search effort is
unpinned) and were taken before that base was shared.

Every hash also leaves out ``graph_shards_touched``.  It counted the
grid's shard overlay, bookkeeping laid over the cell index, not the
graph: which regions a rebuild marked, never which edges it built.  The
hashes were re-taken without it on the last commit that still had the
overlay, so they hold across its removal.
"""

import hashlib
import json

import pytest

from repro.experiments import Scenario, ScenarioRunner
from repro.faults.spec import FaultSpec, crash_schedule
from repro.perf import counters as cnt

CELLS = {
    "mobile": (
        dict(),
        "e0a8bf804e0458243a5f4cc94729ca690aec70a5c55e9b07e213b47fa1af188f",
        {cnt.CONN_LABEL_HITS: 3969, cnt.BFS_CALLS: 4530,
         cnt.BFS_CACHE_HITS: 1054, cnt.BFS_NODES_EXPANDED: 18319},
        "2bc9fcdc528ca5902c8d58dbe47968201142b60b7f244bfc9806200074ac8b4e"),
    "static_lossy": (
        dict(speed_mps=0.0, faults=FaultSpec(loss_rate=0.05)),
        "28ed307ce6452d7ef9f3a04fe1cf46e7a6c2e6830b7556fd9b703bd9ece1d3b9",
        {cnt.CONN_LABEL_HITS: 1400, cnt.BFS_CALLS: 1123,
         cnt.BFS_CACHE_HITS: 1910, cnt.BFS_NODES_EXPANDED: 5673,
         cnt.CONN_SPLIT_SLOTS_SCANNED: 59},
        "5e52007da5574b648aeaef1c632734f9fa9242a0d138a4ec8a4cf152ae017580"),
    "mobile_crash": (
        dict(faults=FaultSpec(
            crashes=crash_schedule(40, 0.2, at=40.0, seed=7))),
        "446cf044fcdac8d146355e920167874d54249dc394f84bf61760df828e0af491",
        {cnt.CONN_LABEL_HITS: 3890, cnt.BFS_CALLS: 4065,
         cnt.BFS_CACHE_HITS: 965, cnt.BFS_NODES_EXPANDED: 15489},
        "2a676ec6e523f585e20e2877fc3cd04df42f9ee40db1ac0f7147a5b89afc8e1c"),
    "static_lossy_crash": (
        dict(speed_mps=0.0, faults=FaultSpec(
            loss_rate=0.05,
            crashes=crash_schedule(40, 0.2, at=30.0, downtime=20.0,
                                   seed=7))),
        "da2e70489b977292676ee1bc53bab2f3f4fe7a1f4ce411b89ff0a18447397f8e",
        {cnt.CONN_LABEL_HITS: 1683, cnt.BFS_CALLS: 1203,
         cnt.BFS_CACHE_HITS: 1833, cnt.BFS_NODES_EXPANDED: 5648,
         cnt.CONN_SPLIT_SLOTS_SCANNED: 98},
        "becd574f7031bcc0dff069ad0c85fb1532ba950ec21a9b70ff87defa80d14d7a"),
}


BASELINE_PINS = {
    ("manetconf", "mobile"):
        "d6ba4e60af0f23ca715f28faea1ee509d9726021b9a93cf74f6f8eeab2cdf03b",
    ("manetconf", "static_lossy"):
        "680ebf722f084ff5ea10ea185ab501d6f3c61a78ef5cebb9244bcb08863b639e",
    ("buddy", "mobile"):
        "ec68035c12bbe2d8afdb21807a8368fe4878d865b0ec61a10d48bd349aba4f35",
    ("buddy", "static_lossy"):
        "53a206e3b4ed901c5be825ebbcdd6c70ba4a1ebaecfad2a06e6eb52d0da6d2ce",
    ("ctree", "mobile"):
        "a443791ba1a8106d0d4861a1aa296945a4206d0c33c586b5da6c1e3c2b2e54df",
    ("ctree", "static_lossy"):
        "ba6eab1640603b3ff590829ac31770c3bf80ad6af7873c5756ef2f5d47a6c79c",
    ("dad", "mobile"):
        "7202c9b721ef6c3ac665be0c887b83eb1450c96a873b33f6fd34fcc1d75125ed",
    ("dad", "static_lossy"):
        "3663c88e06f9cadb50147b56018b9cffe7aad5dfd9cc46f12dc09cd4b7d54211",
}


def cell_scenario(cell, **overrides):
    return Scenario(num_nodes=40, seed=7, depart_fraction=0.3,
                    abrupt_probability=0.3, **CELLS[cell][0], **overrides)


def payload_digest(payload):
    # Floods only: the static quorum cell's two floods are both bounded.
    payload["perf_counters"].pop(cnt.BFS_UNBOUNDED, None)
    payload["perf_counters"].pop("graph_shards_touched", None)
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
