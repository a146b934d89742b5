"""Proactive disjoint-block assignment (Mohsin & Prakash, MILCOM 2002)
— baseline [2].

Every configured node owns a disjoint buddy block and can configure a
new node single-handedly by splitting its block (cheap, local).  The
price is state maintenance: each node keeps an IP allocation table of
the whole network and *periodically synchronizes* it by flooding its
allocation state — the overhead that grows with network size in
Figs. 8-10.  A node keeps track of its buddy (the node it split from);
missed synchronizations from the buddy trigger reclamation of the
buddy's space.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.addrspace.block import Block
from repro.addrspace.pool import AddressPool
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category
from repro.baselines.base import BaseAutoconfAgent
from repro.sim.timers import PeriodicTimer

BD_REQ = "BD_REQ"          # new node -> configured node: want a block
BD_ASSIGN = "BD_ASSIGN"    # allocator -> new node: your block
BD_REDIRECT = "BD_REDIRECT"  # allocator is dry: ask this node instead
BD_NACK = "BD_NACK"
BD_SYNC = "BD_SYNC"        # periodic allocation-table flood
BD_RETURN = "BD_RETURN"    # departing node -> buddy: my space back
BD_CLAIM = "BD_CLAIM"      # buddy reclaims a silent node's space


@dataclasses.dataclass
class BuddyConfig:
    """Tunables for the Mohsin-Prakash baseline."""

    address_space_bits: int = 10
    sync_interval: float = 5.0
    stale_syncs: int = 3        # missed syncs before reclaiming a buddy
    config_timeout: float = 2.0
    max_attempts: int = 8

    @property
    def address_space_size(self) -> int:
        return 1 << self.address_space_bits


class BuddyAgent(BaseAutoconfAgent):
    """Per-node implementation of the disjoint-block scheme."""

    protocol_name = "buddy"

    def __init__(self, ctx: NetworkContext, node: Node,
                 cfg: Optional[BuddyConfig] = None) -> None:
        super().__init__(ctx, node)
        self.cfg = cfg or BuddyConfig()
        self.pool: Optional[AddressPool] = None
        self.donor_id: Optional[int] = None   # the buddy we split from
        # Global allocation table: node_id -> (ip, free_count, last_seen).
        self.table: Dict[int, Tuple[int, int, float]] = {}
        self._sync_timer: Optional[PeriodicTimer] = None
        self._redirect_target: Optional[int] = None

    def _can_allocate(self) -> bool:
        return (
            self.ip is not None
            and self.pool is not None
            and self.pool.free_count() > 0
        )

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def on_enter(self) -> None:
        self.entered_at = self.ctx.sim.now
        self._try_configure()

    def _try_configure(self) -> None:
        if self.is_configured() or not self.node.alive:
            return
        if self.attempts >= self.cfg.max_attempts:
            self.failed = True
            return
        self.attempts += 1
        target = self._redirect_target
        self._redirect_target = None
        if target is None or not self.ctx.is_configured(target):
            nearest = self._nearest_configured()
            if nearest is None:
                self._become_first()
                return
            target = nearest[0]
        self._send(target, BD_REQ, {"lat": 0}, Category.CONFIG)
        self._retry_timer.restart(self.cfg.config_timeout)

    def _become_first(self) -> None:
        whole = Block(0, self.cfg.address_space_size)
        self.pool = AddressPool([whole])
        own = self.pool.allocate()
        assert own == 0
        self.network_id = (1 << 20) + self.node_id
        self._finish(own, latency_hops=0)

    def _finish(self, ip: int, latency_hops: int) -> None:
        self._mark_configured(ip, latency_hops)
        self.table[self.node_id] = (
            ip, self.pool.free_count() if self.pool else 0, self.ctx.sim.now)
        self._start_sync()

    def _on_retry_timeout(self) -> None:
        self._try_configure()

    # --- allocator side -------------------------------------------------
    def _handle_bd_req(self, msg: Message) -> None:
        if not self.is_configured() or self.pool is None:
            self._send(msg.src, BD_NACK, {}, Category.CONFIG)
            return
        block = self.pool.take_half()
        if block is None:
            target = self._largest_block_peer()
            if target is not None:
                self._send(msg.src, BD_REDIRECT, {"target": target},
                           Category.CONFIG)
            else:
                self._send(msg.src, BD_NACK, {}, Category.CONFIG)
            return
        self._send(msg.src, BD_ASSIGN, {
            "block": (block.start, block.size),
            "lat": msg.payload.get("lat", 0) + msg.hops,
        }, Category.CONFIG)

    def _largest_block_peer(self) -> Optional[int]:
        """Address borrowing in [2]: the global table names the node with
        the largest free block."""
        best: Optional[int] = None
        best_free = 0
        for node_id, (_ip, free, _seen) in self.table.items():
            if node_id == self.node_id or not self.ctx.is_configured(node_id):
                continue
            if free > best_free:
                best, best_free = node_id, free
        return best

    # --- requester side -------------------------------------------------
    def _handle_bd_assign(self, msg: Message) -> None:
        if self.is_configured():
            return
        block = Block(*msg.payload["block"])
        self.pool = AddressPool([block])
        ip = self.pool.allocate(block.start)
        assert ip == block.start
        self.donor_id = msg.src
        self.network_id = msg.network_id
        self._finish(ip, msg.payload["lat"] + msg.hops)

    def _handle_bd_redirect(self, msg: Message) -> None:
        if self.is_configured():
            return
        self._redirect_target = msg.payload["target"]
        self._retry_timer.restart(0.05)

    def _handle_bd_nack(self, msg: Message) -> None:
        if not self.is_configured():
            self._retry_timer.restart(self.cfg.config_timeout * 0.5)

    # ------------------------------------------------------------------
    # Periodic global synchronization (the scheme's defining cost)
    # ------------------------------------------------------------------
    def _start_sync(self) -> None:
        if self._sync_timer is not None:
            return
        timer = PeriodicTimer(self.ctx.sim, self.cfg.sync_interval,
                              self._sync_round)
        stagger = (self.node_id % 10) / 10.0 * self.cfg.sync_interval
        timer.start(first_delay=self.cfg.sync_interval + stagger)
        self._sync_timer = timer

    def _sync_round(self) -> None:
        if not self.is_configured() or self.pool is None:
            return
        self._flood(BD_SYNC, {
            "ip": self.ip,
            "free": self.pool.free_count(),
        }, Category.MAINTENANCE)
        self._check_buddy_liveness()

    def _handle_bd_sync(self, msg: Message) -> None:
        self.table[msg.src] = (
            msg.payload["ip"], msg.payload["free"], self.ctx.sim.now)

    def _check_buddy_liveness(self) -> None:
        """Reclaim the space of nodes we split blocks to (our buddies)
        when their syncs stop arriving."""
        horizon = self.cfg.sync_interval * self.cfg.stale_syncs
        now = self.ctx.sim.now
        for node_id, (ip, _free, seen) in list(self.table.items()):
            if node_id == self.node_id or now - seen < horizon:
                continue
            agent = self.ctx.agent_of(node_id)
            donor = getattr(agent, "donor_id", None) if agent else None
            if donor != self.node_id:
                del self.table[node_id]
                continue
            # Our buddy went silent: claim its space.
            del self.table[node_id]
            if agent is not None and getattr(agent, "pool", None) is not None \
                    and self.pool is not None and not agent.node.alive:
                for block in agent.pool.take_all():
                    self.pool.absorb_block(block)
                self.pool.absorb_free_many([ip])
                agent._note_allocator()
                self._note_allocator()
                self._flood(BD_CLAIM, {"of": node_id}, Category.RECLAMATION)

    def _handle_bd_claim(self, msg: Message) -> None:
        self.table.pop(msg.payload["of"], None)

    # ------------------------------------------------------------------
    # Departure
    # ------------------------------------------------------------------
    def depart_gracefully(self) -> None:
        if self.is_configured() and self.pool is not None:
            target = self.donor_id
            if target is None or not self.ctx.is_configured(target):
                target = self._largest_block_peer()
            if target is not None:
                blocks = [(b.start, b.size) for b in self.pool.take_all()]
                self._send(target, BD_RETURN, {
                    "blocks": blocks,
                    "ip": self.ip,
                }, Category.DEPARTURE)
        self._finalize_leave()

    def _handle_bd_return(self, msg: Message) -> None:
        if self.pool is None:
            return
        for start, size in msg.payload["blocks"]:
            self.pool.absorb_block(Block(start, size))
        self.pool.absorb_free_many([msg.payload["ip"]])
        self.table.pop(msg.src, None)

    def _stop_timers(self) -> None:
        super()._stop_timers()
        if self._sync_timer is not None:
            self._sync_timer.stop()
            self._sync_timer = None
