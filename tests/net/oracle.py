"""Legacy networkx topology engine, kept as the tests' oracle.

This is the original implementation of :class:`repro.net.topology.Topology`
verbatim: dense ``O(n^2)`` pairwise distances via numpy, edges inserted
into a :class:`networkx.Graph`, hop queries answered by
``nx.single_source_shortest_path_length``.  The native spatial-grid
engine is validated against it — edge sets, hop-count dicts *including
iteration order*, and connected components must match exactly
(``tests/net/test_topology_oracle.py``).

numpy and networkx live in the ``test`` extra, not in the runtime
package; every module that imports this one calls
``pytest.importorskip("networkx")`` first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.net.node import Node
from repro.perf import PerfRecorder
from repro.sim.engine import Simulator


class OracleTopology:
    """The pre-grid, networkx-backed topology engine (reference only).

    Mirrors the public query API of :class:`repro.net.topology.Topology`
    minus the ``max_hops``/perf extensions, so equivalence tests can run
    both engines over the same node population.
    """

    def __init__(
        self,
        sim: Simulator,
        transmission_range: float,
        refresh_interval: float = 0.5,
    ) -> None:
        if transmission_range <= 0:
            raise ValueError("transmission range must be positive")
        self.sim = sim
        self.transmission_range = transmission_range
        self.refresh_interval = refresh_interval
        self._nodes: Dict[int, Node] = {}
        self._graph: Optional[nx.Graph] = None
        self._graph_time: float = -1.0
        self._graph_version: int = 0
        self._bfs_cache: Dict[int, Dict[int, int]] = {}
        # Compat shim: lets a Transport drive this engine in regression
        # tests (the native engine exposes the same attribute).
        self.perf = PerfRecorder()

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self._nodes[node.node_id] = node
        self.invalidate()

    def remove_node(self, node: Node) -> None:
        self._nodes.pop(node.node_id, None)
        self.invalidate()

    def get(self, node_id: int) -> Optional[Node]:
        return self._nodes.get(node_id)

    def nodes(self) -> List[Node]:
        """All alive nodes currently in the area."""
        return [n for n in self._nodes.values() if n.alive]

    def invalidate(self) -> None:
        """Force a graph rebuild on the next query."""
        self._graph = None
        self._bfs_cache.clear()

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def graph(self) -> nx.Graph:
        """The unit-disk graph over alive nodes at (approximately) now."""
        now = self.sim.now
        if (
            self._graph is not None
            and now - self._graph_time <= self.refresh_interval
        ):
            return self._graph
        alive = self.nodes()
        g = nx.Graph()
        g.add_nodes_from(n.node_id for n in alive)
        if len(alive) > 1:
            coordinates = np.array(
                [(p.x, p.y) for p in (n.position(now) for n in alive)],
                dtype=float,
            )
            ids = [n.node_id for n in alive]
            deltas = coordinates[:, None, :] - coordinates[None, :, :]
            sq_dist = np.einsum("ijk,ijk->ij", deltas, deltas)
            limit = self.transmission_range ** 2
            rows, cols = np.nonzero(sq_dist <= limit)
            for i, j in zip(rows, cols):
                if i < j:
                    g.add_edge(ids[i], ids[j])
        self._graph = g
        self._graph_time = now
        self._graph_version += 1
        self._bfs_cache.clear()
        return g

    # ------------------------------------------------------------------
    # Hop-count queries
    # ------------------------------------------------------------------
    def _bfs_from(self, node_id: int) -> Dict[int, int]:
        g = self.graph()
        cached = self._bfs_cache.get(node_id)
        if cached is not None:
            return cached
        if node_id not in g:
            lengths: Dict[int, int] = {}
        else:
            lengths = nx.single_source_shortest_path_length(g, node_id)
        self._bfs_cache[node_id] = lengths
        return lengths

    def hops(self, a: int, b: int) -> Optional[int]:
        """Shortest-path hop count from ``a`` to ``b``; None if unreachable."""
        if a == b:
            return 0
        return self._bfs_from(a).get(b)

    def neighbors(self, node_id: int) -> List[int]:
        """One-hop neighbor ids."""
        g = self.graph()
        if node_id not in g:
            return []
        return list(g.neighbors(node_id))

    def within_hops(self, node_id: int, k: int) -> List[Tuple[int, int]]:
        """``(other_id, hops)`` for every node within ``k`` hops (excl. self)."""
        return [
            (other, d)
            for other, d in self._bfs_from(node_id).items()
            if 0 < d <= k
        ]

    def reachable(self, node_id: int,
                  max_hops: Optional[int] = None) -> Dict[int, int]:
        """All reachable nodes with their hop distances (including self=0).

        ``max_hops`` filters the (always-full) BFS result — a compat
        shim for callers written against the native engine's bounded
        search; the oracle gains no speed from it.
        """
        lengths = self._bfs_from(node_id)
        if max_hops is None:
            return dict(lengths)
        return {other: d for other, d in lengths.items() if d <= max_hops}

    def eccentricity_from(self, node_id: int) -> int:
        """Max hop distance to any reachable node (0 if isolated)."""
        lengths = self._bfs_from(node_id)
        return max(lengths.values()) if lengths else 0

    def components(self) -> List[Set[int]]:
        """Connected components of the current graph (sets of node ids)."""
        return [set(c) for c in nx.connected_components(self.graph())]
