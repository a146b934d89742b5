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

All eight quorum pins were re-taken when the protocol's outputs moved
on purpose, on the commit that keys the IP registry by network and
times out head proposals and unacknowledged hand-offs.  The registry
alone moves all four cells: after a re-found, commit-time conflict
probes and returned-address routing now resolve addresses in their
own network.  The proposal timeout and the hand-off order move every
cell with a lost or undeliverable ``CH_PRP``, ``CH_CNF`` or
``CH_RETURN``, and every graceful head departure (``RESIGN`` now
follows ``CH_RETURN_ACK``).  The baseline pins did not move.  Where a
cell's search counters came in under their budget by more than the
25 % margin, the budget was lowered to the new reading times 1.25.

The static cells' budgets were lowered the same way when the location
check and the QDSet audit began to park and arrivals stopped moving
the component table's version: fewer polls run, so fewer hop and
label questions are asked.  No hash or digest moved.  They were
lowered again, with the mobile cells' ``conn_label_hits``, when a
parked merge scan began to wake only for its own component's entry
and the location check's removal stamp became its component's.
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
        "00d39db59b1d669c109024aaebedf2de6f51a55fe74235ea84f107980592091e",
        {cnt.CONN_LABEL_HITS: 3560, cnt.BFS_CALLS: 4530,
         cnt.BFS_CACHE_HITS: 1054, cnt.BFS_NODES_EXPANDED: 18319},
        "faaf0b239846230873357e9798566a9606921ace79b104917c07a010696eac70"),
    "static_lossy": (
        dict(speed_mps=0.0, faults=FaultSpec(loss_rate=0.05)),
        "8cd08bd08d71e6775aceb3b4ef1ca8f2368bba73e1fde79955930630618487d9",
        {cnt.CONN_LABEL_HITS: 818, cnt.BFS_CALLS: 948,
         cnt.BFS_CACHE_HITS: 672, cnt.BFS_NODES_EXPANDED: 5049,
         cnt.CONN_SPLIT_SLOTS_SCANNED: 59},
        "f364fb653347ff2ccd66f07ff33091db127a26dd1457c322cb751151583146bf"),
    "mobile_crash": (
        dict(faults=FaultSpec(
            crashes=crash_schedule(40, 0.2, at=40.0, seed=7))),
        "17980684f74636f45926bfe6efebaccf813f903c7a0a05a6e47e9b959ef87bfc",
        {cnt.CONN_LABEL_HITS: 3425, cnt.BFS_CALLS: 4065,
         cnt.BFS_CACHE_HITS: 965, cnt.BFS_NODES_EXPANDED: 15489},
        "5afc5b6748253dc58241f737986d66b345b48c106e1fdc78f2acd3f58e5ad393"),
    "static_lossy_crash": (
        dict(speed_mps=0.0, faults=FaultSpec(
            loss_rate=0.05,
            crashes=crash_schedule(40, 0.2, at=30.0, downtime=20.0,
                                   seed=7))),
        "906ba55737a1ebbde8f120ddd41f505dd64fb27d956781a70e75c5852e5981e0",
        {cnt.CONN_LABEL_HITS: 962, cnt.BFS_CALLS: 1055,
         cnt.BFS_CACHE_HITS: 754, cnt.BFS_NODES_EXPANDED: 5409,
         cnt.CONN_SPLIT_SLOTS_SCANNED: 98},
        "c385c22c0c0237cef61de59b6556e19642f3b0e674c2bc369af11d61938c6a80"),
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
