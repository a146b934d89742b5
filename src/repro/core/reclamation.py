"""Address reclamation (Section IV-D).

When a cluster head U is detected to have left abruptly (or an allocator
runs dry in both IPSpace and QuorumSpace), a detector holding a replica
of U broadcasts ``ADDR_REC``.  Common nodes configured by U answer with
``REC_REP`` to their closest cluster head, which marks the address
occupied in its replica of U (forwarding to a replica holder if it has
none).  After a collection window, U's space is absorbed: addresses
confirmed held stay assigned under the new owner; everything else
returns to the free pool — avoiding address leaks without global
flooding.

Safety additions beyond the paper's prose (the paper asserts uniqueness
but does not spell these out):

* **Single absorber.**  Replica holders that hear ``ADDR_REC`` announce
  themselves (``REC_HOLDER``); the lowest-id holder absorbs, and an
  initiator that is not it delegates (``REC_DELEGATE``).  Without this,
  several replica holders would each take ownership of the same space.
* **Absorb-time recheck.**  If the "dead" head is reachable again when
  the collection window closes, the reclamation is cancelled — it was a
  transient partition, not a death.
* **Majority consent.**  Only the majority side of the quorum universe
  may absorb (see :meth:`AdjustmentMixin._majority_reachable`).
* **Handed-off space.**  A head that left without the acknowledgement
  of its ``CH_RETURN`` did not resign, so its QDSet members reclaim it;
  but the receiver may have absorbed the space all the same.  The
  receiver answers the ``ADDR_REC`` (``REC_HOLDER``) and the read-repair
  (``REC_SYNC_ACK``) with "absorbed", and the reclaimer drops its
  replica instead of absorbing the space a second time.
* **Zombie fence.**  A head that was reclaimed while merely partitioned
  must not keep allocating from its old space once it re-encounters the
  network: any vote or replica exchange it attempts with a node that
  reclaimed it is answered with a rejoin command instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core import messages as m
from repro.net.message import Message
from repro.net.stats import Category
from repro.net.transport import Scope
from repro.addrspace.records import AddressRecord, AddressStatus
from repro.obs import events as obs_ev
from repro.perf import counters as cnt

#: Hop radius of the scoped ADDR_REC broadcast.  The paper realizes
#: reclamation "locally"; this bounds the scope (a full component flood
#: reproduces [1]-style costs).
RECLAMATION_RADIUS = 4


class ReclamationMixin:
    """ADDR_REC / REC_REP handling and space absorption."""

    def _emit_reclaim(self, dead_id: int, phase: str) -> None:
        """ReclamationEvent observability hook (no-op when tracing off)."""
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.ReclamationEvent(
                time=self.ctx.sim.now, node=self.node_id, corr=0,
                dead=dead_id, phase=phase))

    def _init_reclamation_state(self) -> None:
        self._reclaimed: Set[int] = set()
        self._reclaim_holders: Dict[int, Set[int]] = {}
        # dead_id -> last time we heard someone else's ADDR_REC for it;
        # suppresses duplicate reclamation floods from every detector.
        self._reclaim_observed: Dict[int, float] = {}
        # Self-audit (out-of-addresses reclamation, Section IV-D).
        self._self_audit_claims: Set[int] = set()
        self._self_audit_last = -1e9

    # ------------------------------------------------------------------
    def initiate_reclamation(self, dead_id: int, dead_ip: Optional[int]) -> None:
        """Start reclaiming the space of departed head ``dead_id``."""
        if not self.is_allocator() or dead_id in self._reclaimed:
            return
        if ("reclaim", dead_id) in self._awaited:
            return  # collection already under way
        if dead_id in self._absorbed_handoffs:
            self._forget_head(dead_id)   # its space is in our pool
            return
        assert self.head is not None
        replica = self.head.replicas.get(dead_id)
        if replica is None:
            return
        observed = self._reclaim_observed.get(dead_id)
        if (
            observed is not None
            and self.ctx.sim.now - observed < 3 * self.cfg.reclamation_window
        ):
            # Another detector is already reclaiming; cede to it.
            self.head.replicas.drop(dead_id)
            self.head.qdset.remove(dead_id)
            self._reclaimed.add(dead_id)
            return
        self._reclaim_holders[dead_id] = set()
        msg = Message(mtype=m.ADDR_REC, src=self.node_id, dst=None, payload={
            "dead_id": dead_id,
            "dead_ip": dead_ip,
            "initiator": self.node_id,
        }, network_id=self.network_id)
        # max_hops also bounds the underlying BFS: the flood only ever
        # explores the reclamation-radius ring, not the whole component.
        self.ctx.transport.send(
            self.node, None, msg, category=Category.RECLAMATION,
            scope=Scope.FLOOD, max_hops=RECLAMATION_RADIUS,
        )
        self.ctx.events.incr(cnt.EV_RECLAMATION_INITIATED)
        self._emit_reclaim(dead_id, "initiated")
        self._await(("reclaim", dead_id), self.cfg.reclamation_window,
                    self._conclude_reclamation, dead_id)

    # ------------------------------------------------------------------
    def _handle_addr_rec(self, msg: Message) -> None:
        dead_id = msg.payload["dead_id"]
        dead_ip = msg.payload.get("dead_ip")
        initiator = msg.payload.get("initiator", msg.src)
        same_network = (
            msg.network_id is None or msg.network_id == self.network_id)
        if self.common is not None and self.node.alive and same_network:
            configured_by_dead = (
                self.common.configurer_id == dead_id
                or (dead_ip is not None and self.common.configurer_ip == dead_ip)
            )
            if configured_by_dead:
                nearest = self._nearest_allocator()
                if nearest is not None:
                    self._send(nearest[0], m.REC_REP, {
                        "ip": self.common.ip,
                        "dead_id": dead_id,
                    }, Category.RECLAMATION)
        if self.head is not None and initiator != self.node_id:
            self._reclaim_observed[dead_id] = self.ctx.sim.now
            if dead_id in self._absorbed_handoffs:
                self._send(initiator, m.REC_HOLDER, {
                    "dead_id": dead_id, "absorbed": True,
                }, Category.RECLAMATION)
            elif self.head.replicas.get(dead_id) is not None:
                self._send(initiator, m.REC_HOLDER, {"dead_id": dead_id},
                           Category.RECLAMATION)
            if dead_id in self.head.qdset:
                # The detector vouches for the death; treat as suspicion.
                self._suspect_member(dead_id)

    def _handle_rec_holder(self, msg: Message) -> None:
        if msg.payload.get("absorbed"):
            self._drop_handed_off(msg.payload["dead_id"])
            return
        holders = self._reclaim_holders.get(msg.payload["dead_id"])
        if holders is not None:
            holders.add(msg.src)

    def _drop_handed_off(self, dead_id: int) -> None:
        """Another head absorbed ``dead_id``'s hand-off: end our
        reclamation of it, and drop the replica, which is stale."""
        self._settle(("reclaim", dead_id))
        self._reclaim_holders.pop(dead_id, None)
        self._forget_head(dead_id)
        self._emit_reclaim(dead_id, "handed-off")

    def _apply_rec_rep(self, dead_id: int, address: int, holder: int) -> bool:
        assert self.head is not None
        replica = self.head.replicas.get(dead_id)
        if replica is not None and replica.covers(address):
            replica.ledger.mark_assigned(address, holder)
            return True
        return False

    def _handle_rec_rep(self, msg: Message) -> None:
        if self.head is None:
            return
        dead_id = msg.payload["dead_id"]
        address = msg.payload["ip"]
        if self._apply_rec_rep(dead_id, address, msg.src):
            return
        # Not a replica holder: forward to adjacent heads until the
        # allocation information is updated (Section IV-D).
        payload = dict(msg.payload)
        payload["holder"] = msg.src
        for member in self.head.qdset.active_members():
            self._send(member, m.REC_FWD, payload, Category.RECLAMATION)

    def _handle_rec_fwd(self, msg: Message) -> None:
        if self.head is None:
            return
        self._apply_rec_rep(
            msg.payload["dead_id"], msg.payload["ip"],
            msg.payload.get("holder", msg.src),
        )

    # ------------------------------------------------------------------
    # Conclusion: elect the single absorber, or cancel
    # ------------------------------------------------------------------
    def _surviving_holders(self, dead_id: int, announced: Set[int]) -> Set[int]:
        """Alive, reachable, same-network heads expected to hold the
        dead head's replica: the election electorate for the absorber."""
        assert self.head is not None
        replica = self.head.replicas.get(dead_id)
        expected = set(replica.holders) if replica is not None else set()
        expected |= announced
        expected.add(self.node_id)
        expected.discard(dead_id)
        survivors = set()
        for candidate in expected:
            if candidate == self.node_id:
                survivors.add(candidate)
                continue
            if (
                self._member_reachable(candidate)
                and self.ctx.is_head(candidate)
                and self._same_network_head(candidate)
            ):
                survivors.add(candidate)
        return survivors

    def _conclude_reclamation(self, dead_id: int) -> None:
        holders = self._reclaim_holders.pop(dead_id, set())
        if self.head is None:
            return
        if self._member_reachable(dead_id):
            # Transient partition, not a death: cancel entirely.
            self._reclaimed.discard(dead_id)
            self._wake_audit()   # it may recruit the head again
            if self.ctx.is_head(dead_id):
                self.head.qdset.add(dead_id)
            self._emit_reclaim(dead_id, "cancelled")
            return
        absorber = min(self._surviving_holders(dead_id, holders))
        if absorber == self.node_id:
            self._sync_then_absorb(dead_id)
        else:
            self._emit_reclaim(dead_id, "delegated")
            self._send(absorber, m.REC_DELEGATE, {"dead_id": dead_id},
                       Category.RECLAMATION)
            # We keep our replica until the absorber's refresh replaces
            # our view; mark reclaimed so we never vote for the zombie.
            self._reclaimed.add(dead_id)
            self.head.qdset.remove(dead_id)

    def _sync_then_absorb(self, dead_id: int) -> None:
        """Read-repair before absorbing: pull the other holders' view of
        the dead head's replica first.  Our copy may predate the owner's
        last block grant — absorbing a stale extent would fork ownership
        of the granted range."""
        if self.head is None or dead_id in self._reclaimed:
            return
        for holder in sorted(self._surviving_holders(dead_id, set())):
            if holder != self.node_id:
                self._send(holder, m.REC_SYNC, {"dead_id": dead_id},
                           Category.RECLAMATION)
        # A wait already under way (a delegation crossed our own) is
        # disowned, not stopped: it runs out and forgets this one too.
        self._awaited.pop(("reclaim", dead_id), None)
        self._await(("reclaim", dead_id), 1.0, self._absorb_dead_head,
                    dead_id)

    def _handle_rec_sync(self, msg: Message) -> None:
        if self.head is None:
            return
        dead_id = msg.payload["dead_id"]
        if dead_id in self._absorbed_handoffs:
            self._send(msg.src, m.REC_SYNC_ACK, {
                "owner_id": dead_id, "absorbed": True,
            }, Category.RECLAMATION)
            return
        replica = self.head.replicas.get(dead_id)
        if replica is None:
            return
        # Our copy, in the shape of the owner's own replica snapshot.
        self._send(msg.src, m.REC_SYNC_ACK, {
            "owner_id": dead_id,
            "ver": replica.version,
            "free": replica.free.ranges(),
            "assigned": replica.assigned.ranges(),
            "qdset": sorted(replica.holders),
            "records": replica.ledger.rows(),
        }, Category.RECLAMATION)

    def _handle_rec_sync_ack(self, msg: Message) -> None:
        if msg.payload.get("absorbed"):
            self._drop_handed_off(msg.payload["owner_id"])
        elif (self.head is not None
                and self.head.replicas.get(msg.payload["owner_id"]) is not None):
            self._install_replica_from(msg.payload)

    def _handle_rec_delegate(self, msg: Message) -> None:
        dead_id = msg.payload["dead_id"]
        if self.head is not None and self.head.replicas.get(dead_id) is None:
            # Elected but we hold no copy (stale holder list): pass the
            # duty along, bounded to avoid delegation loops.
            ttl = msg.payload.get("ttl", 3)
            if ttl <= 0 or dead_id in self._reclaimed:
                return
            survivors = self._surviving_holders(dead_id, set())
            survivors.discard(self.node_id)
            if survivors:
                self._send(min(survivors), m.REC_DELEGATE, {
                    "dead_id": dead_id, "ttl": ttl - 1,
                }, Category.RECLAMATION)
            return
        self._sync_then_absorb(dead_id)

    def _absorb_dead_head(self, dead_id: int) -> None:
        """Take ownership of the dead head's space (single absorber)."""
        if not self.is_allocator():
            return
        assert self.head is not None
        if dead_id in self._reclaimed:
            return  # already absorbed / already fenced
        if self._member_reachable(dead_id):
            return
        if not self._majority_reachable():
            # We may be on the minority side of a partition rather than
            # survivors of a death; absorbing here could hand out
            # addresses the other side still owns.  Keep the replica.
            return
        replica = self.head.replicas.drop(dead_id)
        if replica is None:
            return
        self._reclaimed.add(dead_id)
        assigned: List[Tuple[int, AddressRecord]] = []
        for address in replica.addresses():
            record = replica.ledger.peek(address)
            held = (
                record is not None
                and record.status is AddressStatus.ASSIGNED
                and record.holder != dead_id
                and record.holder is not None
            )
            if held:
                assigned.append((address, record))
            else:
                stamp = record.timestamp + 1 if record is not None else 1
                self.head.pool.absorb(address, address + 1)
                self.head.ledger.apply(
                    address, AddressRecord(AddressStatus.FREE, stamp, None))
        for address, record in assigned:
            self.head.pool.absorb_assigned(address)
            self.head.ledger.apply(address, record)
            if record.holder is not None:
                self.head.configured[address] = record.holder
        self.head.qdset.remove(dead_id)
        self._emit_reclaim(dead_id, "absorbed")
        self._refresh_replica_at_members(want_ack=False)

    # ------------------------------------------------------------------
    # Out-of-addresses self-audit (Section IV-D: an allocator "running
    # out of IP addresses in both IPSpace and QuorumSpace initiates the
    # address reclamation process")
    # ------------------------------------------------------------------
    def _initiate_self_audit(self) -> None:
        """Ask the network who still holds our addresses; free the rest.

        Floods the whole component (dry allocators are rare, and partial
        coverage would wrongly free addresses of live distant holders).
        """
        if not self.is_allocator():
            return
        now = self.ctx.sim.now
        if now - self._self_audit_last < 4 * self.cfg.reclamation_window:
            return
        self._self_audit_last = now
        self._self_audit_claims = set()
        assert self.head is not None
        msg = Message(mtype=m.REC_AUDIT, src=self.node_id, dst=None, payload={
            "owner_id": self.node_id,
            "owner_ip": self.head.ip,
        }, network_id=self.network_id)
        self.ctx.transport.send(self.node, None, msg,
                                category=Category.RECLAMATION,
                                scope=Scope.FLOOD)
        self._await(("self_audit", None), self.cfg.reclamation_window,
                    self._conclude_self_audit)

    def _handle_rec_audit(self, msg: Message) -> None:
        if not self.node.alive or not self.is_configured():
            return
        if msg.network_id != self.network_id:
            return
        owner_ip = msg.payload.get("owner_ip")
        configurer_ip = None
        if self.common is not None:
            configurer_ip = self.common.configurer_ip
        elif self.head is not None:
            configurer_ip = self.head.configurer_ip
        if configurer_ip == owner_ip:
            assert self.ip is not None
            self._send(msg.src, m.REC_CLAIMED, {"ip": self.ip},
                       Category.RECLAMATION)

    def _handle_rec_claimed(self, msg: Message) -> None:
        self._self_audit_claims.add(msg.payload["ip"])

    def _conclude_self_audit(self) -> None:
        if not self.is_allocator():
            return
        assert self.head is not None
        claims = self._self_audit_claims
        # ranges() copies the bounds, so releasing during the walk is safe.
        for start, end in self.head.pool.allocated.ranges():
            for address in range(start, end):
                if address == self.head.ip or address in claims:
                    continue
                holder = self.head.configured.get(address)
                if holder is not None and holder >= 0:
                    node = self.ctx.node_of(holder)
                    if node is not None and node.alive:
                        # Alive somewhere — possibly behind a partition.
                        # Freeing now could mint a duplicate when it
                        # returns; keep the address booked.
                        continue
                self.head.pool.release(address)
                record = self.head.ledger.mark_free(address)
                self.head.configured.pop(address, None)
                self._broadcast_update(self.node_id, address, record,
                                       Category.RECLAMATION)

    # ------------------------------------------------------------------
    # Zombie fence (see module docstring)
    # ------------------------------------------------------------------
    def _fence_if_reclaimed(self, head_id: int) -> bool:
        """If ``head_id`` was reclaimed, command it to rejoin.

        Returns True when fenced (the caller must not treat the sender
        as a live quorum peer).  The id is removed from the reclaimed
        set so a reconfigured incarnation is accepted normally.
        """
        if head_id not in self._reclaimed:
            return False
        self._reclaimed.discard(head_id)
        self._wake_audit()
        self._send(head_id, m.MERGE_JOIN, {}, Category.PARTITION)
        return True
