"""Periodic HELLO beaconing and neighborhood knowledge.

Per Section IV-B, every configured node beacons a periodic hello message
carrying its IP address and the cluster heads within three hops; entering
nodes listen to these beacons to learn about nearby allocators.

The reproduction models the *knowledge* hellos provide as queries against
the connectivity oracle (the information a node would have gathered from
recent beacons), while the *cost* of beaconing is accounted explicitly by
this service.  Beacon cost is identical across all compared protocols, so
the paper's overhead figures exclude it; it is tracked under
``Category.HELLO`` and can be included when studying absolute load.
"""

from __future__ import annotations

from typing import Callable, Collection, List, Optional, Tuple

from repro.net.stats import Category, MessageStats
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.timers import PeriodicTimer


class HelloService:
    """Beacon cost accounting plus hello-derived neighborhood queries."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        stats: Optional[MessageStats] = None,
        interval: float = 1.0,
        count_cost: bool = False,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.stats = stats
        self.interval = interval
        self.count_cost = count_cost
        self._timer = PeriodicTimer(sim, interval, self._beacon_round)

    def start(self) -> None:
        self._timer.start(first_delay=self.interval)

    def stop(self) -> None:
        self._timer.stop()

    def _beacon_round(self) -> None:
        if self.count_cost and self.stats is not None:
            alive = len(self.topology.nodes())
            if alive:
                self.stats.charge(Category.HELLO, alive, messages=alive)

    # ------------------------------------------------------------------
    # Hello-derived knowledge
    # ------------------------------------------------------------------
    def heads_within(
        self,
        node_id: int,
        k: int,
        is_head: Callable[[int], bool],
        among: Optional[Collection[int]] = None,
    ) -> List[Tuple[int, int]]:
        """Cluster heads within ``k`` hops of ``node_id``, as hellos report.

        Returns ``(head_id, hops)`` sorted nearest-first (ties broken by
        id for determinism).  ``among`` is a superset of the ids
        ``is_head`` can accept (the registry's ``allocator_ids``): only
        the ring's nodes inside it are put to ``is_head``, which turns
        a scan of the neighbourhood into a scan of the candidates.
        """
        heads = [
            (other, hops)
            for other, hops in self.topology.within_hops(node_id, k, among)
            if is_head(other)
        ]
        heads.sort(key=lambda pair: (pair[1], pair[0]))
        return heads

    def nearest_head(
        self,
        node_id: int,
        is_head: Callable[[int], bool],
        max_hops: Optional[int] = None,
        among: Optional[Collection[int]] = None,
    ) -> Optional[Tuple[int, int]]:
        """The closest reachable cluster head, or ``None``.

        ``max_hops`` bounds the search (e.g. 2 for the role decision);
        unbounded searches model a node asking the whole partition.
        Either way :meth:`Topology.nearest` stops at the first level
        holding a head, and ``is_head`` is bound by its ``accept``
        rule: agent and node state only, no topology queries.
        ``among`` is the candidate superset of :meth:`heads_within`.
        """
        return self.topology.nearest(node_id, is_head, max_hops, among)
