"""The central registry of deterministic perf counter names.

Every :meth:`repro.perf.PerfRecorder.incr` call site names its counter
through a constant defined here (or through :func:`send_counter` for
the per-scope send family).  Centralizing the names buys two things:

* a typo'd counter string is a lint error (the ``counter-registry``
  whole-program rule checks every ``perf.incr``/``perf.get`` literal
  against :data:`ALL_COUNTERS`), not a silently-empty ledger metric;
* the perf ledger (``ledger/workloads.py``), the pinned-result budgets
  and the docs enumerate counters from one place, so a renamed counter
  cannot drift apart from its consumers.

Stats/event tallies (``MessageStats``, fault event counters) are a
separate vocabulary and deliberately not registered here — they ride
plain :class:`repro.perf.Counters` sinks, not the perf recorder.
"""

from __future__ import annotations

from typing import FrozenSet

# --- graph rebuild machinery (repro.net.topology) --------------------------
GRAPH_REBUILDS = "graph_rebuilds"
GRAPH_FULL_REBUILDS = "graph_full_rebuilds"
GRAPH_DELTA_REBUILDS = "graph_delta_rebuilds"
GRAPH_DELTA_DIRTY_NODES = "graph_delta_dirty_nodes"
GRAPH_EDGES_BUILT = "graph_edges_built"
GRAPH_SHARDS_TOUCHED = "graph_shards_touched"
GRAPH_POSITIONS_RECOMPUTED = "graph_positions_recomputed"
GRAPH_NODE_INVALIDATIONS = "graph_node_invalidations"

# --- BFS / hop queries (repro.net.topology) --------------------------------
BFS_CALLS = "bfs_calls"
BFS_CACHE_HITS = "bfs_cache_hits"
BFS_NODES_EXPANDED = "bfs_nodes_expanded"
BFS_UNBOUNDED = "bfs_unbounded"

# --- incremental connectivity labels (repro.net.topology) ------------------
CONN_RELABELS = "conn_relabels"
CONN_FULL_RELABELS = "conn_full_relabels"
CONN_DELTA_RELABELS = "conn_delta_relabels"
CONN_SLOTS_RELABELED = "conn_slots_relabeled"
CONN_SPLIT_SLOTS_SCANNED = "conn_split_slots_scanned"
CONN_LABEL_HITS = "conn_label_hits"

# --- transport (repro.net.transport) ---------------------------------------
MSG_FANOUT_SHARED = "msg_fanout_shared"
SEND_UNICAST = "send_unicast"
SEND_NEIGHBORS = "send_neighbors"
SEND_FLOOD = "send_flood"

_SEND_BY_SCOPE = {
    "unicast": SEND_UNICAST,
    "neighbors": SEND_NEIGHBORS,
    "flood": SEND_FLOOD,
}


def send_counter(scope_value: str) -> str:
    """The per-scope send counter (``send_unicast`` / ... / ``send_flood``).

    Raises ``KeyError`` for an unknown scope value, so a new
    :class:`~repro.net.transport.Scope` member cannot silently mint an
    unregistered counter.
    """
    return _SEND_BY_SCOPE[scope_value]


#: Every registered counter name.  The ``counter-registry`` lint rule
#: checks ``perf.incr``/``perf.get`` string literals against this set.
ALL_COUNTERS: FrozenSet[str] = frozenset({
    GRAPH_REBUILDS,
    GRAPH_FULL_REBUILDS,
    GRAPH_DELTA_REBUILDS,
    GRAPH_DELTA_DIRTY_NODES,
    GRAPH_EDGES_BUILT,
    GRAPH_SHARDS_TOUCHED,
    GRAPH_POSITIONS_RECOMPUTED,
    GRAPH_NODE_INVALIDATIONS,
    BFS_CALLS,
    BFS_CACHE_HITS,
    BFS_NODES_EXPANDED,
    BFS_UNBOUNDED,
    CONN_RELABELS,
    CONN_FULL_RELABELS,
    CONN_DELTA_RELABELS,
    CONN_SLOTS_RELABELED,
    CONN_SPLIT_SLOTS_SCANNED,
    CONN_LABEL_HITS,
    MSG_FANOUT_SHARED,
    SEND_UNICAST,
    SEND_NEIGHBORS,
    SEND_FLOOD,
})

#: Wall-clock timer names (ledger-only; never serialized into results).
TIMER_TRANSPORT_SEND = "transport.send"
TIMER_TOPOLOGY_REBUILD = "topology.rebuild"
TIMER_TOPOLOGY_BFS = "topology.bfs"
