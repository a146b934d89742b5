"""Runtime interpretation of a :class:`~repro.faults.spec.FaultSpec`.

One :class:`FaultModel` is wired into each
:class:`~repro.net.context.NetworkContext` (and from there into
:class:`~repro.net.transport.Transport`).  The transport consults it on
every delivery; crash/restart schedules run directly on the simulator's
event heap.

Fault discipline (who knows what):

* Per-hop loss, link churn and partition cuts are *silent* — the sender
  still sees a successful transmission (``SendOutcome.ok``), because a
  radio cannot observe a downstream drop.  Failure must be discovered
  through the protocol's own timeout machinery (``T_e`` retries,
  ``T_d``/``T_r`` auditing, vote timers), which is the point.
* Topology-level unreachability (no route at all) still fails fast,
  exactly as in the reliable transport.
* Crashed nodes leave the connectivity graph, so hello-derived
  knowledge sees them as gone; cut/churn-affected nodes do *not* — the
  oracle stays optimistic and only real traffic suffers.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.spec import CrashEvent, FaultSpec
from repro.perf import Counters
from repro.perf import counters as cnt
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed, spawn_key

#: Resolution of the hash-to-uniform conversion used for link churn.
_CHURN_SCALE = float(2 ** 64)


class FaultModel:
    """Applies a fault spec to a live simulation.

    Args:
        spec: the declarative fault schedule.
        sim: simulator whose clock, heap and RNG streams drive faults.
        topology: mutated by crash/restart events.
        events: counter sink for observability (crash/restart/drop
            tallies); a fresh one is created when not supplied.
    """

    def __init__(
        self,
        spec: FaultSpec,
        sim: Simulator,
        topology: Topology,
        events: Optional[Counters] = None,
    ) -> None:
        self.spec = spec
        self.sim = sim
        self.topology = topology
        self.events = events if events is not None else Counters()
        # Dedicated streams: enabling faults must not perturb any other
        # subsystem's randomness (variance isolation).
        self._drop_rng = sim.streams.get("faults.drop")
        self._delay_rng = sim.streams.get("faults.delay")
        self._churn_seed = derive_seed(sim.streams.master_seed, "faults.churn")
        self._cut_groups = [
            (frozenset(cut.group), cut.at, cut.heal_at)
            for cut in spec.partitions
        ]
        self._installed = False

    # ------------------------------------------------------------------
    # Scheduled faults (crash / restart)
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule the crash/restart events on the simulator (idempotent)."""
        if self._installed:
            return
        self._installed = True
        for crash in self.spec.crashes:
            self.sim.schedule_at(crash.at, self._crash, crash)

    def _crash(self, crash: CrashEvent) -> None:
        node = self.topology.get(crash.node_id)
        if node is None or not node.alive:
            self.events.incr(cnt.EV_FAULT_CRASH_SKIPPED)
            return
        node.alive = False
        # Scope is exactly this node: the delta-rebuild path absorbs
        # the flip instead of paying a full O(n) rebuild per crash.
        self.topology.invalidate_nodes((crash.node_id,))
        self.events.incr(cnt.EV_FAULT_CRASHES)
        if crash.restart_at is not None:
            self.sim.schedule_at(crash.restart_at, self._restart, crash)
        else:
            # Never coming back: evict so the topology does not carry
            # the corpse through every future rebuild.  Dead and absent
            # are indistinguishable to queries (get() -> None vs a
            # not-alive node are handled identically everywhere).
            self.topology.remove_node(node)

    def _restart(self, crash: CrashEvent) -> None:
        node = self.topology.get(crash.node_id)
        if node is None or node.alive:
            return
        node.alive = True
        self.topology.invalidate_nodes((crash.node_id,))
        self.events.incr(cnt.EV_FAULT_RESTARTS)

    # ------------------------------------------------------------------
    # Link-state faults (partition cuts, churn)
    # ------------------------------------------------------------------
    def link_blocked(self, a: int, b: int) -> bool:
        """Is all traffic between endpoints ``a`` and ``b`` jammed now?"""
        now = self.sim.now
        for group, start, heal in self._cut_groups:
            if start <= now < heal and ((a in group) != (b in group)):
                return True
        if self.spec.link_churn_rate > 0.0:
            bucket = int(now // self.spec.link_churn_period)
            lo, hi = (a, b) if a <= b else (b, a)
            draw = spawn_key(self._churn_seed, lo, hi, bucket) / _CHURN_SCALE
            if draw < self.spec.link_churn_rate:
                return True
        return False

    # ------------------------------------------------------------------
    # Per-delivery faults
    # ------------------------------------------------------------------
    def unicast_loss_hop(self, src: int, dst: int, hops: int) -> Optional[int]:
        """Hop index (1-based) at which a unicast dies, or ``None``.

        A blocked endpoint pair dies on the first transmission; per-hop
        loss samples each hop independently, so the returned index is
        geometric — the partial route traversed before the drop is what
        gets charged to the stats.
        """
        if self.link_blocked(src, dst):
            return 1 if hops > 0 else 0
        p = self.spec.loss_rate
        if p > 0.0:
            for hop in range(1, hops + 1):
                if self._drop_rng.random() < p:
                    return hop
        return None

    def drops_delivery(self, src: int, dst: int, hops: int) -> bool:
        """Single compound loss draw for one broadcast/flood receiver."""
        if self.link_blocked(src, dst):
            return True
        p = self.spec.loss_rate
        if p > 0.0:
            survive = (1.0 - p) ** hops
            return self._drop_rng.random() >= survive
        return False

    def delivery_delay(self) -> float:
        """Extra latency to add to one delivery."""
        delay = self.spec.extra_delay
        if self.spec.jitter > 0.0:
            delay += self.spec.jitter * self._delay_rng.random()
        return delay
