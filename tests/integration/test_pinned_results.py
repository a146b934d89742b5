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

The same precedent covers two ``RunResult`` fields nothing read:
``extension_ratios`` (a per-head list; Fig. 12 reads the
``ip_space_total``/``quorum_space_total`` aggregates) and
``leaked_addresses`` (always 0).  All twelve hashes were re-taken
without those two keys on the last commit that still had the fields,
so they hold across the fields' removal.
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
        "92e05690c0c259fa57b66908c5d704b1715f7e3e7345bff3e181a47aa0b474f4",
        {cnt.CONN_LABEL_HITS: 3969, cnt.BFS_CALLS: 4530,
         cnt.BFS_CACHE_HITS: 1054, cnt.BFS_NODES_EXPANDED: 18319},
        "2bc9fcdc528ca5902c8d58dbe47968201142b60b7f244bfc9806200074ac8b4e"),
    "static_lossy": (
        dict(speed_mps=0.0, faults=FaultSpec(loss_rate=0.05)),
        "c4f2c7804f2599704afe814a3fcb794bb5aeb67631650a92b0e82d7bad5c7a3c",
        {cnt.CONN_LABEL_HITS: 1400, cnt.BFS_CALLS: 1123,
         cnt.BFS_CACHE_HITS: 1910, cnt.BFS_NODES_EXPANDED: 5673,
         cnt.CONN_SPLIT_SLOTS_SCANNED: 59},
        "5e52007da5574b648aeaef1c632734f9fa9242a0d138a4ec8a4cf152ae017580"),
    "mobile_crash": (
        dict(faults=FaultSpec(
            crashes=crash_schedule(40, 0.2, at=40.0, seed=7))),
        "92a7fe8f7f0ed4cca1191a636a0ac39882453f6f7bdedca35d470246c3abc70e",
        {cnt.CONN_LABEL_HITS: 3890, cnt.BFS_CALLS: 4065,
         cnt.BFS_CACHE_HITS: 965, cnt.BFS_NODES_EXPANDED: 15489},
        "2a676ec6e523f585e20e2877fc3cd04df42f9ee40db1ac0f7147a5b89afc8e1c"),
    "static_lossy_crash": (
        dict(speed_mps=0.0, faults=FaultSpec(
            loss_rate=0.05,
            crashes=crash_schedule(40, 0.2, at=30.0, downtime=20.0,
                                   seed=7))),
        "bc21a0db50760700216a0df27a1c875020a2aec00c241bf1f1b9428187eb416f",
        {cnt.CONN_LABEL_HITS: 1683, cnt.BFS_CALLS: 1203,
         cnt.BFS_CACHE_HITS: 1833, cnt.BFS_NODES_EXPANDED: 5648,
         cnt.CONN_SPLIT_SLOTS_SCANNED: 98},
        "becd574f7031bcc0dff069ad0c85fb1532ba950ec21a9b70ff87defa80d14d7a"),
}


BASELINE_PINS = {
    ("manetconf", "mobile"):
        "e0d6cca895646a1ab33100e41bdb1dec09adada0f2a2ba8521e2ee6d0b055289",
    ("manetconf", "static_lossy"):
        "6b0a8184fedb8633caa2b4bdc32f6727084a6ab0ac58dfd67f05348aa6259a24",
    ("buddy", "mobile"):
        "961ff9f186e78168fd864729d64cadef212557e42488913dfd2d29ec08d36fb7",
    ("buddy", "static_lossy"):
        "6e0d2ce401fb0be93e5879b994ea4d42ff5d4cb778fa0b561a27285b500ed904",
    ("ctree", "mobile"):
        "79e962b40221a7f198392de4465a48d5141447425e44bf470dd17e89a9f0cc94",
    ("ctree", "static_lossy"):
        "cb2c6b115d562b6c3282ae0427f9f5079af5f5c5739241a55fa597f8b26aa84d",
    ("dad", "mobile"):
        "526f4263f73c3049e99747c1198f286346f6f459b854329e032c2ca873183e2b",
    ("dad", "static_lossy"):
        "b309f17719fc20c61dc228c905c553d1c58105bab0417b4d51c52b11dd864951",
}


def cell_scenario(cell, **overrides):
    return Scenario(num_nodes=40, seed=7, depart_fraction=0.3,
                    abrupt_probability=0.3, **CELLS[cell][0], **overrides)


def payload_digest(payload):
    # Floods only: the static quorum cell's two floods are both bounded.
    payload["perf_counters"].pop(cnt.BFS_UNBOUNDED, None)
    payload["perf_counters"].pop("graph_shards_touched", None)
    payload.pop("extension_ratios", None)
    payload.pop("leaked_addresses", None)
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
