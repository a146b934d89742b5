"""Graceful departure (Sections IV-C-1 and IV-C-2).

A common node returns its address to the nearest cluster head and leaves
once acknowledged; the return is routed to the allocator (or, failing
that, applied at replica holders).  A departing cluster head returns its
whole IP block to its configurer if within three hops, otherwise to the
QDSet member with the smallest IP block, resigns from the QDSets of its
neighbors, and the receiver informs the departed head's configured nodes
of their new allocator.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cluster.roles import ADJACENT_HEAD_HOPS, Role
from repro.core import messages as m
from repro.net.message import Message
from repro.net.stats import Category
from repro.obs import events as obs_ev
from repro.sim.timers import Timer

LEAVE_GRACE = 2.0  # leave even if the acknowledgement never arrives


class DepartureMixin:
    """Graceful-leave behavior for both node roles."""

    def _init_departure_state(self) -> None:
        self._leaving = False
        # Leave even if no acknowledgement arrives.  The callback is
        # defined here so the profiler charges the timer to repro.core.
        self._leave_timer = Timer(self.ctx.sim,
                                  lambda: self._finalize_leave())

    # ------------------------------------------------------------------
    # Entry point (called by the scenario runner)
    # ------------------------------------------------------------------
    def depart_gracefully(self) -> None:
        if not self.node.alive or self._leaving:
            return
        self._leaving = True
        if not self.is_configured():
            self._finalize_leave()
            return
        if self.role is Role.HEAD:
            self._head_departure()
        else:
            self._common_departure()
        if self.node.alive:
            self._leave_timer.restart(LEAVE_GRACE)

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
        if self._leaving:
            self._leave_timer.stop()
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
        owner_id = self.ctx.resolve_ip(configurer_ip)
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
    def _return_target(self) -> Optional[int]:
        """Configurer if within three hops, else smallest-block QDSet
        member, else the nearest head."""
        assert self.head is not None
        configurer = self.head.configurer_id
        if configurer is not None and self.ctx.is_head(configurer):
            hops = self.ctx.topology.hops(self.node_id, configurer,
                                          max_hops=ADJACENT_HEAD_HOPS)
            if hops is not None:
                return configurer

        def replica_size(member: int) -> int:
            replica = self.head.replicas.get(member)
            return replica.size() if replica is not None else 1 << 30

        candidates = [
            member for member in self.head.qdset.active_members()
            # Any reachable co-holder in the partition may take the
            # block, however far away — an O(1) connectivity-label
            # check per member, not an unbounded BFS.
            if self.ctx.is_head(member)
            and self.ctx.topology.same_component(self.node_id, member)
        ]
        if candidates:
            return min(candidates, key=lambda mid: (replica_size(mid), mid))
        nearest = self._nearest_allocator()
        return nearest[0] if nearest is not None else None

    def _head_departure(self) -> None:
        assert self.head is not None
        for member in self.head.qdset.members():
            self._send(member, m.RESIGN, {"ip": self.head.ip},
                       Category.DEPARTURE)
        target = self._return_target()
        if target is None:
            # Nobody to return to: the space leaks until reclamation.
            self._finalize_leave()
            return
        self._send(target, m.CH_RETURN, self._hand_off_to(target),
                   Category.DEPARTURE)

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
        self._send(msg.src, m.CH_RETURN_ACK, {}, Category.DEPARTURE)
        payload = msg.payload
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
        if self._leaving:
            self._leave_timer.stop()
            self._finalize_leave()

    def _handle_resign(self, msg: Message) -> None:
        if self.head is None:
            return
        self.head.qdset.remove(msg.src)
        self.head.replicas.drop(msg.src)
        self._clear_suspicion(msg.src)

    def _handle_alloc_change(self, msg: Message) -> None:
        if self.common is None:
            return
        self.common.configurer_id = msg.payload["new_id"]
        self.common.configurer_ip = msg.payload["new_ip"]
        self.common.administrator_id = None
