"""Distributed IP assignment with a C-tree (Sheu, Tu & Chan, ICPADS
2005) — baseline [3].

Only *coordinators* maintain IP address pools and configure new nodes;
they form a virtual tree (the C-tree) rooted at the *C-root*, the first
node in the network, and periodically report their allocation state up
to it.  The C-root alone holds the global allocation table: it detects
coordinators that stop reporting and then drives address reclamation by
flooding a collection request that every node answers directly to the
C-root.  Addresses are never returned to their original allocator, so
the scheme fragments over time (the paper's Section VI-C remark); and
the C-root is both the mainstay and the bottleneck.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Set

from repro.addrspace.block import Block
from repro.addrspace.pool import AddressPool
from repro.net.agent import RETRY, Agent
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category
from repro.sim.timers import PeriodicTimer

CT_REQ = "CT_REQ"            # new node -> coordinator: one address
CT_ASSIGN = "CT_ASSIGN"
CT_BLOCK_REQ = "CT_BLOCK_REQ"   # new coordinator -> nearest coordinator
CT_BLOCK_ASSIGN = "CT_BLOCK_ASSIGN"
CT_NACK = "CT_NACK"
CT_REPORT = "CT_REPORT"      # coordinator -> C-root, periodic
CT_RETURN = "CT_RETURN"      # departing node -> nearest coordinator
CT_POOL_RETURN = "CT_POOL_RETURN"  # departing coordinator -> C-root
CT_COLLECT = "CT_COLLECT"    # C-root flood: who is out there?
CT_ALIVE = "CT_ALIVE"        # node -> C-root: I exist, my address is X
CT_NEWROOT = "CT_NEWROOT"    # root handover announcement

COORDINATOR_SCOPE_HOPS = 2   # same clustering radius as the paper's CHs


@dataclasses.dataclass
class CTreeConfig:
    """Tunables for the Sheu et al. baseline."""

    address_space_bits: int = 10
    report_interval: float = 5.0
    stale_reports: int = 3
    collect_window: float = 2.0
    config_timeout: float = 2.0

    @property
    def address_space_size(self) -> int:
        return 1 << self.address_space_bits


class CTreeAgent(Agent):
    """Per-node implementation of the C-tree scheme."""

    protocol_name = "ctree"

    def __init__(self, ctx: NetworkContext, node: Node,
                 cfg: Optional[CTreeConfig] = None) -> None:
        super().__init__(ctx, node)
        self.cfg = cfg or CTreeConfig()
        self.is_coordinator = False
        self.is_root = False
        self.pool: Optional[AddressPool] = None
        self.root_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self._report_timer: Optional[PeriodicTimer] = None
        self._root_check_timer: Optional[PeriodicTimer] = None
        # Fig. 13 bookkeeping: state the C-root has NOT yet seen.
        self.allocations_since_report = 0
        self.ever_reported = False
        # C-root state.
        self.coordinator_last_report: Dict[int, float] = {}
        self._reclaiming: Set[int] = set()

    def _can_allocate(self) -> bool:
        return (
            self.ip is not None
            and self.is_coordinator
            and self.pool is not None
            and len(self.pool.free) > 0
        )

    def death_snapshot(self) -> Dict[str, Any]:
        """A coordinator's death loses what the C-root has not seen."""
        return {
            "was_head": self.is_coordinator and self.is_configured(),
            "ever_reported": self.ever_reported or self.is_root,
            "allocations_since_report": self.allocations_since_report,
            "root_id": self.root_id,
            "allocations_total": (
                len(self.pool.allocated) if self.pool is not None else 0),
        }

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _request(self) -> None:
        near = self._allocators_within(COORDINATOR_SCOPE_HOPS)
        target = near[0] if near else self._nearest_allocator()
        if target is None:
            self._become_root()
            return
        self._send(target[0], CT_REQ if near else CT_BLOCK_REQ, {"lat": 0},
                   Category.CONFIG)
        self._await(RETRY, self.cfg.config_timeout, self._try_configure)

    def _become_root(self) -> None:
        whole = Block(0, self.cfg.address_space_size)
        self.pool = AddressPool([whole])
        own = self.pool.allocate()
        assert own == 0
        self.is_coordinator = True
        self.is_root = True
        self.root_id = self.node_id
        self.network_id = (1 << 20) + self.node_id
        self._mark_configured(own, latency_hops=0)
        self._start_root_liveness_check()

    def _start_root_liveness_check(self) -> None:
        interval = self.cfg.report_interval
        self._root_check_timer = self._every(
            self._root_check_timer, interval,
            self._check_coordinator_liveness, interval * 1.5)

    # --- coordinator side -----------------------------------------------
    def _handle_ct_req(self, msg: Message) -> None:
        if not self.is_allocator():
            self._send(msg.src, CT_NACK, {}, Category.CONFIG)
            return
        assert self.pool is not None
        address = self.pool.allocate()
        if address is None:
            self._send(msg.src, CT_NACK, {}, Category.CONFIG)
            return
        self._note_allocator()
        self.allocations_since_report += 1
        self._send(msg.src, CT_ASSIGN, {
            "address": address,
            "root": self.root_id,
            "lat": msg.payload.get("lat", 0) + msg.hops,
        }, Category.CONFIG)

    def _handle_ct_block_req(self, msg: Message) -> None:
        if not self.is_allocator() or self.pool is None:
            self._send(msg.src, CT_NACK, {}, Category.CONFIG)
            return
        block = self.pool.take_half()
        if block is None:
            self._send(msg.src, CT_NACK, {}, Category.CONFIG)
            return
        self._note_allocator()
        self.allocations_since_report += 1
        self._send(msg.src, CT_BLOCK_ASSIGN, {
            "block": (block.start, block.size),
            "root": self.root_id,
            "lat": msg.payload.get("lat", 0) + msg.hops,
        }, Category.CONFIG)

    # --- requester side ---------------------------------------------------
    def _handle_ct_assign(self, msg: Message) -> None:
        if self.is_configured():
            return
        self.root_id = msg.payload.get("root")
        self.parent_id = msg.src
        self.network_id = msg.network_id
        self._mark_configured(
            msg.payload["address"], msg.payload["lat"] + msg.hops)

    def _handle_ct_block_assign(self, msg: Message) -> None:
        if self.is_configured():
            return
        block = Block(*msg.payload["block"])
        self.pool = AddressPool([block])
        ip = self.pool.allocate(block.start)
        assert ip == block.start
        self.is_coordinator = True
        self.root_id = msg.payload.get("root")
        self.parent_id = msg.src
        self.network_id = msg.network_id
        self._mark_configured(ip, msg.payload["lat"] + msg.hops)
        self._start_reporting()

    def _handle_ct_nack(self, msg: Message) -> None:
        if not self.is_configured():
            self._await(RETRY, self.cfg.config_timeout * 0.5,
                        self._try_configure)

    # ------------------------------------------------------------------
    # Periodic reporting to the C-root
    # ------------------------------------------------------------------
    def _start_reporting(self) -> None:
        if self.is_root:
            return
        interval = self.cfg.report_interval
        self._report_timer = self._every(self._report_timer, interval,
                                         self._report_round,
                                         self._stagger(interval, 10))

    def _report_round(self) -> None:
        if not self.is_coordinator or self.is_root or self.root_id is None:
            return
        delivery = self._send(self.root_id, CT_REPORT, {
            "free": len(self.pool.free) if self.pool else 0,
        }, Category.MAINTENANCE)
        if delivery.ok:
            self.allocations_since_report = 0
            self.ever_reported = True
        elif not self.ctx.is_configured(self.root_id):
            self._elect_new_root()

    def _handle_ct_report(self, msg: Message) -> None:
        if self.is_root:
            self.coordinator_last_report[msg.src] = self.ctx.sim.now
            self._check_coordinator_liveness()

    def _elect_new_root(self) -> None:
        """The C-root is gone: the lowest-address coordinator takes over
        (the paper's scheme has no fix for this — the root is the
        bottleneck; this keeps long simulations running)."""
        coordinators = [
            (agent.ip, nid)
            for nid, agent in self.ctx.agents.items()
            if isinstance(agent, CTreeAgent) and agent.is_coordinator
            and self.ctx.is_configured(nid)
        ]
        if not coordinators:
            return
        _ip, new_root = min(coordinators)
        if new_root == self.node_id:
            self.is_root = True
            self.root_id = self.node_id
            if self._report_timer is not None:
                self._report_timer.stop()
            self._start_root_liveness_check()
            self._flood(CT_NEWROOT, {"root": self.node_id},
                        Category.MAINTENANCE)
        else:
            self.root_id = new_root

    def _handle_ct_newroot(self, msg: Message) -> None:
        self.root_id = msg.payload["root"]

    # ------------------------------------------------------------------
    # Reclamation, driven by the C-root
    # ------------------------------------------------------------------
    def _check_coordinator_liveness(self) -> None:
        horizon = self.cfg.report_interval * self.cfg.stale_reports
        now = self.ctx.sim.now
        for nid, seen in list(self.coordinator_last_report.items()):
            if now - seen < horizon or nid in self._reclaiming:
                continue
            if self.ctx.is_configured(nid):
                continue  # alive, maybe just unreachable
            self._reclaiming.add(nid)
            del self.coordinator_last_report[nid]
            self._initiate_reclamation(nid)

    def _initiate_reclamation(self, dead_id: int) -> None:
        """Global collection: flood, and every node answers the C-root."""
        self._flood(CT_COLLECT, {"dead": dead_id}, Category.RECLAMATION)
        # The C-root absorbs what the dead coordinator held, as known
        # from its last report (substrate shortcut: read its pool).
        agent = self.ctx.agent_of(dead_id)
        if agent is not None and agent.pool is not None \
                and self.pool is not None and not agent.node.alive:
            for block in agent.pool.take_all():
                self.pool.absorb(block.start, block.end)
            if agent.ip is not None:
                self.pool.absorb(agent.ip, agent.ip + 1)
            agent._note_allocator()
            self._note_allocator()

    def _handle_ct_collect(self, msg: Message) -> None:
        if self.is_configured() and not self.is_root:
            self._send(msg.src, CT_ALIVE, {"address": self.ip},
                       Category.RECLAMATION)

    def _handle_ct_alive(self, msg: Message) -> None:
        pass  # the root only needs the existence proof (cost is charged)

    # ------------------------------------------------------------------
    # Departure
    # ------------------------------------------------------------------
    def depart_gracefully(self) -> None:
        if self.is_configured():
            if self.is_coordinator and self.pool is not None:
                target = self.root_id
                if self.is_root or target is None or \
                        not self.ctx.is_configured(target):
                    nearest = self._nearest_allocator()
                    target = nearest[0] if nearest else None
                if target is not None:
                    blocks = [(b.start, b.size) for b in self.pool.take_all()]
                    self._send(target, CT_POOL_RETURN, {
                        "blocks": blocks, "ip": self.ip,
                    }, Category.DEPARTURE)
            else:
                # Addresses go to the *nearest* coordinator, not the
                # original allocator — [3] fragments over time.
                nearest = self._nearest_allocator()
                if nearest is not None:
                    self._send(nearest[0], CT_RETURN, {"address": self.ip},
                               Category.DEPARTURE)
        self._finalize_leave()

    def _handle_ct_return(self, msg: Message) -> None:
        if self.pool is not None:
            address = msg.payload["address"]
            self.pool.absorb(address, address + 1)
            self._note_allocator()

    def _handle_ct_pool_return(self, msg: Message) -> None:
        if self.pool is None:
            return
        for start, size in msg.payload["blocks"]:
            self.pool.absorb(start, start + size)
        self.pool.absorb(msg.payload["ip"], msg.payload["ip"] + 1)
        self._note_allocator()
        self.coordinator_last_report.pop(msg.src, None)
