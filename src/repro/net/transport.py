"""Message delivery with hop-count accounting and fault injection.

Routing is idealized (shortest path over the momentary connectivity
graph), exactly as the paper abstracts it: the metric of interest is hop
counts, not routing-protocol behavior.  Without a fault model, delivery
is reliable within transmission range (Section IV-B); a unicast to an
unreachable node fails, which is how protocols detect partitions and
departed peers.  With a :class:`~repro.faults.model.FaultModel`
attached, deliveries can additionally be lost, delayed or jammed — and
those failures are *silent*: the sender still sees a successful
transmission and must discover the loss through its own timers.

Cost model (Section VI-B):
  * unicast over a k-hop route charges k hops (a fault-dropped unicast
    charges the partial route traversed before the drop);
  * a flood charges one transmission per node that retransmits — the
    source plus every receiver that forwards;
  * a 1-hop broadcast charges 1.

All traffic flows through the single endpoint :meth:`Transport.send`,
which returns a :class:`SendOutcome`.  The pre-``send()`` surface
(``unicast`` / ``broadcast_1hop`` / ``flood``) was removed after its
deprecation window (see docs/API.md for the migration table).

Fan-out deliveries are *flyweight*: :class:`Message` is frozen, so one
delivered copy per distinct hop distance is shared by every receiver at
that distance — a 1-hop broadcast to 30 neighbors delivers one object,
not 30 copies (``msg_fanout_shared`` counter).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category, MessageStats
from repro.net.topology import Topology
from repro.obs.bus import EventBus
from repro.obs.events import MessageSend
from repro.perf import PerfRecorder
from repro.perf import counters as cnt
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.model import FaultModel


class Scope(enum.Enum):
    """How far a send travels."""

    UNICAST = "unicast"        # shortest path to one destination
    NEIGHBORS = "neighbors"    # single transmission, 1-hop receivers
    FLOOD = "flood"            # whole component (or max_hops ring)


#: Scope -> the event/trace vocabulary ("broadcast", not "neighbors").
_KIND_BY_SCOPE = {
    Scope.UNICAST: "unicast",
    Scope.NEIGHBORS: "broadcast",
    Scope.FLOOD: "flood",
}


@dataclasses.dataclass(frozen=True, slots=True)
class SendOutcome:
    """The uniform result of :meth:`Transport.send`.

    Attributes:
        ok: the message was transmitted (sender alive; for unicast, a
            route to a live destination existed).  Under fault
            injection ``ok`` does NOT imply delivery — a dropped
            message still reports ``ok=True`` because the sender cannot
            observe a downstream loss.
        hops: unicast route length (0 for other scopes and failures).
        receivers: ``(node_id, hops)`` for every copy actually
            delivered.
        cost_hops: hop count charged to the stats.
        eccentricity: farthest delivered receiver (flood reach).
        dropped: deliveries suppressed by fault injection.
    """

    ok: bool
    hops: int
    receivers: Tuple[Tuple[int, int], ...]
    cost_hops: int
    eccentricity: int
    dropped: int

    @classmethod
    def failure(cls) -> "SendOutcome":
        """A send that never left the node (dead sender / no route)."""
        return cls(False, 0, (), 0, 0, 0)

    @property
    def delivered(self) -> bool:
        """Did at least one copy reach an agent?"""
        return bool(self.receivers)


class Transport:
    """Sends messages between nodes and charges their cost.

    Args:
        sim: simulation clock/scheduler.
        topology: connectivity oracle.
        stats: hop-count accounting sink.
        per_hop_delay: simulated latency per hop, seconds.  The paper
            reports latency *in hops*; the time delay only orders events.
        faults: optional fault model consulted on every delivery.  When
            ``None`` the transport is perfectly reliable within range.
        perf: shared :class:`~repro.perf.PerfRecorder`; falls back to
            the topology's recorder so counters land in one place.
        obs: the run's :class:`~repro.obs.bus.EventBus`.  Every send
            emits a :class:`~repro.obs.events.MessageSend` event when
            the bus has subscribers; with none the bus is falsy and the
            event is never constructed.  A fresh (silent) bus is created
            when not supplied.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        stats: MessageStats,
        per_hop_delay: float = 0.01,
        faults: Optional["FaultModel"] = None,
        perf: Optional[PerfRecorder] = None,
        obs: Optional[EventBus] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.stats = stats
        self.per_hop_delay = per_hop_delay
        self.faults = faults
        self.perf = perf if perf is not None else topology.perf
        self.obs = obs if obs is not None else EventBus()

    # ------------------------------------------------------------------
    def _deliver(self, dst: Node, msg: Message) -> None:
        if dst.alive and dst.agent is not None:
            dst.agent.on_message(msg)

    def _schedule_delivery(self, base_delay: float, dst: Node,
                           msg: Message) -> None:
        delay = base_delay
        if self.faults is not None:
            delay += self.faults.delivery_delay()
        self.sim.schedule(delay, self._deliver, dst, msg)

    # ------------------------------------------------------------------
    # The unified endpoint
    # ------------------------------------------------------------------
    def send(
        self,
        src: Node,
        dst: Optional[Node],
        msg: Message,
        *,
        category: Category,
        scope: Scope = Scope.UNICAST,
        max_hops: Optional[int] = None,
    ) -> SendOutcome:
        """Send ``msg`` from ``src`` with the given ``scope``.

        * ``Scope.UNICAST`` — shortest path to ``dst``; charges the
          route length.  Fails fast (``ok=False``) when no route exists
          or the destination is dead; a fault-injected drop reports
          ``ok=True`` with ``dropped=1`` and the sender's timeout
          machinery is responsible for reacting.
        * ``Scope.NEIGHBORS`` — one transmission, every live one-hop
          neighbor receives.  Cost: 1 hop.  ``dst`` must be ``None``.
        * ``Scope.FLOOD`` — every node within ``max_hops`` (or the
          whole component) receives a copy; the charged cost is one
          transmission per forwarding node.
        """
        self.perf.incr(cnt.send_counter(scope.value))
        with self.perf.timer(cnt.TIMER_TRANSPORT_SEND):
            if scope is Scope.UNICAST:
                if dst is None:
                    raise ValueError("scope=UNICAST requires a destination")
                outcome = self._send_unicast(src, dst, msg, category)
            elif dst is not None:
                raise ValueError(f"scope={scope.value} takes no destination")
            elif scope is Scope.NEIGHBORS:
                outcome = self._send_neighbors(src, msg, category)
            else:
                outcome = self._send_flood(src, msg, category, max_hops)
        obs = self.obs
        if obs:
            obs.emit(MessageSend(
                time=self.sim.now,
                node=src.node_id,
                corr=msg.corr,
                mtype=msg.mtype,
                kind=_KIND_BY_SCOPE[scope],
                dst=dst.node_id if dst is not None else None,
                hops=(outcome.hops if scope is Scope.UNICAST
                      else outcome.cost_hops),
                category=category.value,
                delivered=outcome.delivered,
                dropped=outcome.dropped,
            ))
        return outcome

    # ------------------------------------------------------------------
    def _send_unicast(self, src: Node, dst: Node, msg: Message,
                      category: Category) -> SendOutcome:
        if not src.alive:
            return SendOutcome.failure()
        # Routing finds the destination wherever it sits in the
        # component, at the cost of the route: ``hops`` is
        # target-terminated, so no bound is needed to keep it cheap.
        hops = self.topology.hops(src.node_id, dst.node_id, max_hops=None)
        if hops is None or not dst.alive:
            return SendOutcome.failure()
        if self.faults is not None:
            lost_at = self.faults.unicast_loss_hop(
                src.node_id, dst.node_id, hops)
            if lost_at is not None:
                self.stats.charge(category, lost_at)
                self.stats.record_drop(category)
                return SendOutcome(True, hops, (), lost_at, 0, 1)
        self.stats.charge(category, hops)
        # Stamped once, and only for a message that is delivered.
        msg = dataclasses.replace(
            msg, src=src.node_id, dst=dst.node_id, sent_at=self.sim.now,
            hops=hops)
        self._schedule_delivery(hops * self.per_hop_delay, dst, msg)
        return SendOutcome(True, hops, ((dst.node_id, hops),), hops, hops, 0)

    def _send_neighbors(self, src: Node, msg: Message,
                        category: Category) -> SendOutcome:
        if not src.alive:
            return SendOutcome.failure()
        msg = dataclasses.replace(
            msg, src=src.node_id, dst=None, sent_at=self.sim.now, hops=1)
        self.stats.charge(category, 1)
        receivers: List[Tuple[int, int]] = []
        dropped = 0
        for nid in self.topology.neighbors(src.node_id):
            node = self.topology.get(nid)
            if node is None or not node.alive:
                continue
            if self.faults is not None and self.faults.drops_delivery(
                    src.node_id, nid, 1):
                dropped += 1
                self.stats.record_drop(category)
                continue
            receivers.append((nid, 1))
            # Flyweight fan-out: every neighbor is at hop distance 1
            # and ``msg`` already carries hops=1, so the frozen message
            # itself is shared by all receivers — no per-receiver copy.
            self._schedule_delivery(self.per_hop_delay, node, msg)
        if len(receivers) > 1:
            self.perf.incr(cnt.MSG_FANOUT_SHARED, len(receivers) - 1)
        return SendOutcome(True, 0, tuple(receivers), 1,
                           1 if receivers else 0, dropped)

    def _send_flood(
        self,
        src: Node,
        msg: Message,
        category: Category,
        max_hops: Optional[int],
    ) -> SendOutcome:
        if not src.alive:
            return SendOutcome.failure()
        msg = dataclasses.replace(
            msg, src=src.node_id, dst=None, sent_at=self.sim.now)
        # Bounded floods only explore the max_hops-ring: the BFS stops
        # at that level instead of walking the whole component.  The
        # level-ordered prefix is identical to filtering a full search.
        reachable = self.topology.reachable(src.node_id, max_hops=max_hops)
        receivers: List[Tuple[int, int]] = []
        forwarders = 1  # the source transmits once
        eccentricity = 0
        dropped = 0
        # Flyweight fan-out: one delivered copy per distinct hop
        # distance, shared by every receiver at that distance (frozen
        # messages make sharing safe).
        copies: Dict[int, Message] = {}
        for nid, hops in reachable.items():
            if nid == src.node_id or hops == 0:
                continue
            if max_hops is not None and hops > max_hops:
                continue
            node = self.topology.get(nid)
            if node is None or not node.alive:
                continue
            # Forwarding (and therefore cost) is decided before fault
            # sampling: a node that never received the flood still
            # appears in the idealized forwarder count, keeping the
            # no-fault cost model unchanged.
            if max_hops is None or hops < max_hops:
                forwarders += 1
            if self.faults is not None and self.faults.drops_delivery(
                    src.node_id, nid, hops):
                dropped += 1
                self.stats.record_drop(category)
                continue
            receivers.append((nid, hops))
            eccentricity = max(eccentricity, hops)
            delivered = copies.get(hops)
            if delivered is None:
                delivered = dataclasses.replace(msg, hops=hops)
                copies[hops] = delivered
            self._schedule_delivery(
                hops * self.per_hop_delay, node, delivered)
        if len(receivers) > len(copies):
            self.perf.incr(cnt.MSG_FANOUT_SHARED,
                           len(receivers) - len(copies))
        self.stats.charge(category, forwarders, messages=forwarders)
        return SendOutcome(True, 0, tuple(receivers), forwarders,
                           eccentricity, dropped)
