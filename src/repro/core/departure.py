"""Graceful departure (Sections IV-C-1 and IV-C-2).

A common node returns its address to the nearest cluster head and leaves
once acknowledged; the return is routed to the allocator (or, failing
that, applied at replica holders).  A departing cluster head returns its
whole IP block to its configurer if within three hops, otherwise to the
QDSet member with the smallest IP block, resigns from the QDSets of its
neighbors, and the receiver informs the departed head's configured nodes
of their new allocator.

The paper resigns before the return is known to have arrived, so a lost
``CH_RETURN`` strands the space in no pool and no replica.  Here a head
(departing or rejoining) resigns only once ``CH_RETURN_ACK`` arrives; it
resends once if none has come halfway through :data:`LEAVE_GRACE`, and
gives up at its end without resigning, so that its QDSet members'
replicas let Section IV-D reclamation recover the space.  A receiver
remembers whose space it absorbed, and answers a reclamation of that
head with "already absorbed", so that a lost acknowledgement does not
put one space in two pools.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from repro.cluster.roles import ADJACENT_HEAD_HOPS, Role
from repro.core import messages as m
from repro.net.message import Message
from repro.net.stats import Category
from repro.obs import events as obs_ev

LEAVE_GRACE = 2.0  # leave even if the acknowledgement never arrives
LEAVE = ("leave", None)  # the wait for it, which marks a node as leaving


@dataclasses.dataclass
class HandOff:
    """A head's ``CH_RETURN`` awaiting its acknowledgement.

    Attributes:
        body: the ``CH_RETURN`` payload: the whole space handed over,
            the head's address (``own_ip``, which ``RESIGN`` names)
            and the sender's hand-off number (``seq``), which the ACK
            echoes and by which a receiver knows a resend.
        targets: same-network heads to return to, in preference order.
        network_id: the network the space belongs to.  A rejoining
            head has left it by the time it resends.
        members: the QDSet members to resign from once acknowledged.
        category: what the messages are charged to.
    """

    body: Dict[str, Any]
    targets: List[int]
    network_id: Optional[int]
    members: List[int]
    category: Category


class DepartureMixin:
    """Graceful-leave behavior for both node roles."""

    def _init_departure_state(self) -> None:
        # Our hand-offs awaiting CH_RETURN_ACK, by seq.
        self._handoffs: Dict[int, HandOff] = {}
        self._handoff_seq = 0
        # Sender -> seq of the last hand-off we absorbed from it.
        self._absorbed_handoffs: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Entry point (called by the scenario runner)
    # ------------------------------------------------------------------
    def depart_gracefully(self) -> None:
        if not self.node.alive or LEAVE in self._awaited:
            return
        if not self.is_configured():
            self._finalize_leave()
            return
        if self.role is Role.HEAD:
            self._head_departure()
        else:
            self._common_departure()
        if self.node.alive:
            self._await(LEAVE, LEAVE_GRACE, self._on_leave_grace_end)

    def _on_leave_grace_end(self) -> None:
        """No acknowledgement within the grace: leave all the same."""
        self._finalize_leave()

    # ------------------------------------------------------------------
    # Common node departure
    # ------------------------------------------------------------------
    def _common_departure(self) -> None:
        assert self.common is not None
        nearest = self._nearest_allocator()
        if nearest is None:
            self._finalize_leave()
            return
        self._send(nearest[0], m.RETURN_ADDR, {
            "ip": self.common.ip,
            "configurer_ip": self.common.configurer_ip,
            "mode": self.cfg.location_update_mode,
        }, Category.DEPARTURE)

    def _handle_return_addr(self, msg: Message) -> None:
        if self.head is None:
            return
        if msg.network_id != self.network_id:
            return  # an address of another network's space, not ours
        self._send(msg.src, m.RETURN_ACK, {}, Category.DEPARTURE)
        self._route_returned_address(
            msg.payload["ip"], msg.payload["configurer_ip"],
            msg.payload.get("mode", "periodic"),
        )

    def _handle_return_ack(self, msg: Message) -> None:
        if self._settle(LEAVE):
            self._finalize_leave()

    def _free_locally(self, address: int) -> None:
        """We are the allocator of ``address``: release and commit."""
        assert self.head is not None
        self.head.pool.release(address)
        record = self.head.ledger.mark_free(address)
        self.head.configured.pop(address, None)
        self._broadcast_update(self.node_id, address, record, Category.DEPARTURE)

    def _route_returned_address(self, address: int, configurer_ip: int,
                                mode: str) -> None:
        assert self.head is not None
        if self.head.pool.owns(address):
            self._free_locally(address)
            return
        payload = {"ip": address, "configurer_ip": configurer_ip}
        if mode == "upon_leave":
            # Upon-leave scheme: broadcast the return to adjacent heads.
            for member in self.head.qdset.active_members():
                self._send(member, m.RETURN_FWD, payload, Category.DEPARTURE)
            self._apply_return_to_replica(address)
            return
        owner_id = self.ctx.resolve_ip(self.network_id, configurer_ip)
        if owner_id is not None and self.ctx.is_head(owner_id):
            delivery = self._send(owner_id, m.RETURN_FWD, payload,
                                  Category.DEPARTURE)
            if delivery.ok:
                return
        # Allocator unreachable: apply at replica holders (ourselves plus
        # adjacent heads) so the quorum view converges to FREE.
        self._apply_return_to_replica(address)
        for member in self.head.qdset.active_members():
            self._send(member, m.RETURN_FWD, payload, Category.DEPARTURE)

    def _apply_return_to_replica(self, address: int) -> None:
        assert self.head is not None
        replica = self.head.replicas.find_covering(address)
        if replica is not None:
            replica.ledger.mark_free(address)

    def _handle_return_fwd(self, msg: Message) -> None:
        if self.head is None:
            return
        if msg.network_id != self.network_id:
            return
        address = msg.payload["ip"]
        if self.head.pool.owns(address):
            self._free_locally(address)
        else:
            self._apply_return_to_replica(address)

    # ------------------------------------------------------------------
    # Cluster head departure
    # ------------------------------------------------------------------
    def _return_targets(self) -> List[int]:
        """Same-network heads a hand-off may go to, best first: the
        configurer if within three hops, then the QDSet members in the
        partition, smallest block first; with none of those, the
        nearest head."""
        assert self.head is not None
        targets = []
        configurer = self.head.configurer_id
        if configurer is not None and self.ctx.is_head(configurer):
            hops = self.ctx.topology.hops(self.node_id, configurer,
                                          max_hops=ADJACENT_HEAD_HOPS)
            if hops is not None:
                targets.append(configurer)

        def replica_size(member: int) -> int:
            replica = self.head.replicas.get(member)
            return replica.size() if replica is not None else 1 << 30

        targets += sorted((
            member for member in self.head.qdset.active_members()
            # Any reachable co-holder in the partition may take the
            # block, however far away — an O(1) connectivity-label
            # check per member, not an unbounded BFS.
            if member not in targets and self.ctx.is_head(member)
            and self.ctx.topology.same_component(self.node_id, member)
        ), key=lambda mid: (replica_size(mid), mid))
        if not targets:
            nearest = self._nearest_allocator()
            if nearest is not None:
                targets.append(nearest[0])
        return [target for target in targets
                if self._same_network_head(target)]

    def _head_departure(self) -> None:
        assert self.head is not None
        if not self._hand_off(Category.DEPARTURE):
            # Nobody to return to: leave without resigning, so that the
            # QDSet members' replicas let reclamation recover the space.
            self._finalize_leave()

    def _hand_off(self, category: Category) -> bool:
        """Hand our whole space to the best return target, keeping the
        QDSet's replicas of it until the target acknowledges.  False
        when there is no target."""
        assert self.head is not None
        self._close_open_proposals()
        targets = self._return_targets()
        if not targets:
            return False
        self._handoff_seq += 1
        body = self._hand_off_to(targets[0])
        body["seq"] = self._handoff_seq
        handoff = HandOff(
            body=body, targets=targets, network_id=self.network_id,
            members=self.head.qdset.members(), category=category)
        self._handoffs[self._handoff_seq] = handoff
        self._send_handoff(handoff, targets[0])
        self._await(("handoff", self._handoff_seq), LEAVE_GRACE / 2,
                    self._on_handoff_timeout, self._handoff_seq)
        return True

    def _send_handoff(self, handoff: HandOff, target: int) -> None:
        dst = self.ctx.node_of(target)
        if dst is None:
            return
        msg = Message(mtype=m.CH_RETURN, src=self.node_id, dst=target,
                      payload=handoff.body, network_id=handoff.network_id)
        self.ctx.transport.send(self.node, dst, msg,
                                category=handoff.category)

    def _on_handoff_timeout(self, seq: int) -> None:
        """No ACK yet: resend once, to the first target that is still a
        head (the same one when only a message was lost: a second head
        would absorb a space the first may already hold)."""
        handoff = self._handoffs.get(seq)
        if handoff is None or not self.node.alive:
            return
        target = next((target for target in handoff.targets
                       if self.ctx.is_head(target)), None)
        if target is not None:
            self._send_handoff(handoff, target)
        self._await(("handoff", seq), LEAVE_GRACE / 2,
                    self._give_up_handoff, seq)

    def _give_up_handoff(self, seq: int) -> None:
        """No ACK by the end of the grace: give up without resigning."""
        if self.node.alive:
            self._handoffs.pop(seq, None)

    def _hand_off_to(self, target: int) -> Dict[str, Any]:
        """Empty our pool into a CH_RETURN body for ``target`` — free
        blocks, assigned addresses with their holders, the records —
        and trace the handoff.  A departing and a rejoining head both
        hand their space over this way."""
        assert self.head is not None
        assigned = [
            (address, self.head.configured.get(address, -1))
            for address in self.head.pool.allocated
            if address != self.head.ip
        ]
        blocks = [(b.start, b.size) for b in self.head.pool.take_all()]
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.HeadHandoff(
                time=self.ctx.sim.now, node=self.node_id, corr=0,
                from_head=self.node_id, to_head=target,
                blocks=len(blocks), assigned=len(assigned)))
        return {
            "own_ip": self.head.ip,
            "blocks": blocks,
            "assigned": assigned,
            "records": self.head.ledger.rows(),
        }

    def _handle_ch_return(self, msg: Message) -> None:
        if self.head is None:
            return
        if msg.network_id != self.network_id:
            return  # blocks from another network's address space
        payload = msg.payload
        self._send(msg.src, m.CH_RETURN_ACK, {"seq": payload["seq"]},
                   Category.DEPARTURE)
        if self._absorbed_handoffs.get(msg.src) == payload["seq"]:
            return  # a resend: only our acknowledgement was lost
        self._absorbed_handoffs[msg.src] = payload["seq"]
        # The space is ours now, not a replica's.
        self._forget_head(msg.src)
        for start, size in payload["blocks"]:
            self.head.pool.absorb(start, start + size)
        self.head.ledger.apply_rows(payload["records"])
        for address, holder in payload["assigned"]:
            self.head.pool.absorb_assigned(address)
            if holder is not None and holder >= 0:
                self.head.configured[address] = holder
        own_ip = payload["own_ip"]
        self.head.pool.absorb(own_ip, own_ip + 1)
        self.head.ledger.mark_free(own_ip)
        # Tell the adopted nodes who their allocator is now.
        for address, holder in payload["assigned"]:
            if holder is None or holder < 0:
                continue
            self._send(holder, m.ALLOC_CHANGE, {
                "new_ip": self.head.ip,
                "new_id": self.node_id,
            }, Category.DEPARTURE)
        self._refresh_replica_at_members(want_ack=False)

    def _handle_ch_return_ack(self, msg: Message) -> None:
        handoff = self._handoffs.pop(msg.payload["seq"], None)
        if handoff is None:
            return
        self._settle(("handoff", msg.payload["seq"]))
        # The target holds the space: only now may the replicas go.
        for member in handoff.members:
            self._send(member, m.RESIGN, {"ip": handoff.body["own_ip"]},
                       handoff.category)
        if self._settle(LEAVE):
            self._finalize_leave()

    def _handle_resign(self, msg: Message) -> None:
        self._forget_head(msg.src)

    def _forget_head(self, head_id: int) -> None:
        """``head_id`` left the quorum system with its space in safe
        hands: drop it from the QDSet, with its replica."""
        if self.head is None:
            return
        self.head.qdset.remove(head_id)
        self.head.replicas.drop(head_id)
        self._clear_suspicion(head_id)

    def _handle_alloc_change(self, msg: Message) -> None:
        if self.common is None:
            return
        self.common.configurer_id = msg.payload["new_id"]
        self.common.configurer_ip = msg.payload["new_ip"]
        self.common.administrator_id = None
        if self._location_timer is not None:
            self._location_timer.unpark()   # its anchor moved
