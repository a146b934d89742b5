"""Whole-graph inspection for tests, built on :class:`Topology`'s public
queries.

The runtime never asks these questions, so the engine does not answer
them itself.  Orders are the engine's: insertion order for nodes, and
``neighbors`` order within a node.  :func:`same_partition` counts one
``conn_label_hits`` per pair it compares.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.net.topology import Topology


def component_id(topo: Topology, node_id: int) -> Optional[int]:
    """The component's canonical id: the node id of its earliest-inserted
    member; None if ``node_id`` is not in the graph."""
    members = topo.component_members(node_id)
    return members[0] if members else None


def same_partition(topo: Topology, ids: Iterable[int]) -> bool:
    """True iff all given nodes are in one connected component."""
    ids = list(ids)
    return all(topo.same_component(ids[0], other) for other in ids[1:])


def node_ids(topo: Topology) -> List[int]:
    """Alive node ids in the current graph, in insertion order."""
    slot_of = topo.store.slot_of
    return sorted((i for component in topo.components() for i in component),
                  key=slot_of.__getitem__)


def has_edge(topo: Topology, a: int, b: int) -> bool:
    return b in topo.neighbors(a)


def edges(topo: Topology) -> Iterator[Tuple[int, int]]:
    """Every edge once, as ``(earlier-inserted id, later-inserted id)``."""
    slot_of = topo.store.slot_of
    for node_id in node_ids(topo):
        for other in topo.neighbors(node_id):
            if slot_of[other] > slot_of[node_id]:
                yield (node_id, other)


def eccentricity_from(topo: Topology, node_id: int) -> int:
    """Max hop distance to any reachable node (0 if isolated)."""
    return max(topo.reachable(node_id, max_hops=None).values(), default=0)
