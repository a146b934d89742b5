"""Quorum adjustment (Section V-B).

A cluster head audits the liveness of its QDSet (from hello-derived
knowledge — the audit itself sends nothing).  A member that stays
unresponsive for ``T_d`` is excluded from the quorum set, which restores
the ability to collect quorums when cluster heads decrease dramatically.
The excluded member is probed with ``REP_REQ``; no ``REP_ACK`` within
``T_r`` triggers address reclamation for it.  New cluster heads entering
the neighborhood are added to the quorum set (replica exchange), and
replication is actively regrown when ``|QDSet|`` drops below three.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.cluster.roles import ADJACENT_HEAD_HOPS
from repro.core import messages as m
from repro.net.message import Message
from repro.net.stats import Category
from repro.obs import events as obs_ev
from repro.perf import counters as cnt
from repro.quorum.voting import is_quorum
from repro.sim.timers import PeriodicTimer


class AdjustmentMixin:
    """QDSet liveness auditing, shrink (T_d), probe (T_r) and regrow."""

    def _init_adjustment_state(self) -> None:
        self._audit_timer: Optional[PeriodicTimer] = None

    def _emit_qdset_change(self, member: int, action: str) -> None:
        """QDSetChanged observability event (no-op while tracing is off)."""
        obs = self.ctx.obs
        if obs and self.head is not None:
            obs.emit(obs_ev.QDSetChanged(
                time=self.ctx.sim.now, node=self.node_id, corr=0,
                member=member, action=action,
                size=len(self.head.qdset.members())))

    def _start_audit(self) -> None:
        interval = self.cfg.audit_interval
        self._audit_timer = self._every(self._audit_timer, interval,
                                        self._audit,
                                        self._stagger(interval, 7))

    # ------------------------------------------------------------------
    def _member_reachable(self, member: int) -> bool:
        node = self.ctx.node_of(member)
        if node is None or not node.alive:
            return False
        # Liveness asks "still in my partition at all", not "still
        # within k hops" — an O(1) connectivity-label check, where the
        # pre-label engine flooded an unbounded BFS per member.
        return self.ctx.topology.same_component(self.node_id, member)

    def _reachable_members(self, members: List[int]) -> Set[int]:
        """The ``members`` that pass :meth:`_member_reachable`, from one
        label question for the whole list.

        Liveness is read first, as the per-member test reads it, and
        the labels are asked only when some member's node is alive: a
        label question refreshes a stale graph, so it has to fall on
        the same events it always fell on (with nobody alive to ask
        about, the audit first touches the graph in ``_allocators_within``).
        """
        node_of = self.ctx.node_of
        alive = [member for member in members
                 if (node := node_of(member)) is not None and node.alive]
        if not alive:
            return set()
        labels = self.ctx.topology.component_indices([*alive, self.node_id])
        mine = labels.pop()
        if mine is None:
            return set()
        return {member for member, label in zip(alive, labels)
                if label == mine}

    def _wake_audit(self) -> None:
        """Its own head state or QDSet changed, T_d was armed (the audit
        does not park while T_d or T_r is out), or a reclaimed head may
        be recruited again."""
        if self._audit_timer is not None:
            self._audit_timer.unpark()

    def _audit_quiet(self) -> bool:
        """No isolation strike is counted and no T_d/T_r is awaited."""
        return not (self._isolated_strikes or any(
            kind in ("td", "tr") for kind, _ in self._awaited))

    def _audit(self) -> None:
        if not self.is_allocator():
            return
        head = self.head
        assert head is not None
        quiet = self._audit_quiet()
        before = (head.qdset.version, self._ever_had_members)
        any_member_reachable = False
        members = head.qdset.members()
        # Asked before the walk: nothing in it changes the graph or a
        # liveness flag.
        reachable = self._reachable_members(members)
        for member in members:
            if member not in reachable:
                if self.cfg.adjustment_enabled:
                    self._suspect_member(member)
                continue
            if self.ctx.is_head(member) and self._same_network_head(member):
                any_member_reachable = True
                self._clear_suspicion(member)
            else:
                # Alive and reachable but no longer an allocator of our
                # network (rejoined after a merge, or demoted): it left
                # the quorum system; drop it without reclamation.
                self._clear_suspicion(member)
                head.qdset.remove(member)
                head.replicas.drop(member)
        self._discover_new_neighbors()
        self._check_isolated(any_member_reachable)
        if (quiet and self.head is head and self._audit_quiet()
                and before == (head.qdset.version, self._ever_had_members)):
            # An audit changes nothing until something it read moves
            # (NetworkContext.park_audit).
            assert self._audit_timer is not None   # it called us
            self.ctx.park_audit(self.node_id, self._audit_timer)

    def _discover_new_neighbors(self) -> None:
        """Quorum expansion: adopt heads that moved within three hops,
        and — Section V-B — actively regrow replication when the QDSet
        has shrunk below :data:`~repro.cluster.qdset.MIN_REPLICAS`, by
        recruiting the nearest same-network heads even beyond the
        three-hop adjacency (a quorum of one dead member would
        otherwise strand the head)."""
        assert self.head is not None
        for head_id, _hops in self._allocators_within(ADJACENT_HEAD_HOPS):
            self._recruit_member(head_id)
        if self.head.qdset.needs_regrow():
            # Regrowing a starved QDSet recruits the nearest heads in
            # the partition, nearest first (recruit order is part of the
            # quorum-safety behavior under churn).  Instead of the
            # pre-label unbounded flood, an expanding-ring search
            # doubles a bounded hop radius until the QDSet is regrown or
            # the ring provably covers the whole component — an O(1)
            # connectivity-label size check.  Candidate order is
            # identical to the old hop-sorted flood; only the search is
            # bounded.
            topology = self.ctx.topology
            component = topology.component_size(self.node_id)
            candidates = self.ctx.allocator_ids
            k = ADJACENT_HEAD_HOPS
            prev = 0
            while self.head.qdset.needs_regrow():
                # The whole ring, not its candidates: the coverage test
                # below counts everyone it reached.
                ring = topology.within_hops(self.node_id, k)
                for _hops, head_id in sorted(
                        (hops, other) for other, hops in ring
                        if hops > prev and other in candidates
                        and self.ctx.is_head(other)):
                    if not self.head.qdset.needs_regrow():
                        break
                    self._recruit_member(head_id)
                if len(ring) + 1 >= component:
                    break  # the ring reached everyone reachable
                prev, k = k, k * 2

    def _recruit_member(self, head_id: int) -> None:
        assert self.head is not None
        if head_id == self.node_id or head_id in self.head.qdset:
            return
        if head_id in self._reclaimed or not self._same_network_head(head_id):
            return
        self.head.qdset.add(head_id)
        self._emit_qdset_change(head_id, "add")
        snapshot = self._replica_snapshot()
        snapshot["want_ack"] = True
        self._send(head_id, m.REPLICA_DIST, snapshot, Category.MAINTENANCE)

    # ------------------------------------------------------------------
    # Suspicion lifecycle: suspect -> (T_d) -> shrink + probe -> (T_r)
    # -> reclamation
    # ------------------------------------------------------------------
    def _suspect_member(self, member: int) -> None:
        if not self.cfg.adjustment_enabled or self.head is None:
            return
        if member not in self.head.qdset or ("td", member) in self._awaited:
            return
        self.head.qdset.suspect(member)
        self.ctx.events.incr(cnt.EV_QUORUM_SUSPECT)
        self._emit_qdset_change(member, "suspect")
        self._await(("td", member), self.cfg.td, self._on_td_expire, member)
        self._wake_audit()

    def _clear_suspicion(self, member: int) -> None:
        suspected = self._settle(("td", member))
        self._settle(("tr", member))
        if self.head is not None:
            self.head.qdset.clear_suspicion(member)
            if suspected:
                # Only a real suspicion being lifted is worth an event;
                # this is also called defensively on every vote reply.
                self._emit_qdset_change(member, "clear")

    def _majority_reachable(self) -> bool:
        """Are we on the majority side of our quorum universe?

        Shrinking the quorum set (and absorbing a dead member's space)
        is only safe when a strict majority of the *current* universe —
        QDSet plus ourselves — is reachable; otherwise two partition
        sides could both shrink to themselves and hand out the same
        addresses.  This is the view-change discipline dynamic voting
        requires (Jajodia & Mutchler)."""
        if self.head is None:
            return False
        members = self.head.qdset.members()
        return is_quorum(self._reachable_members(members) | {self.node_id},
                         set(members) | {self.node_id})

    def _on_td_expire(self, member: int) -> None:
        if self.head is None:
            return
        if self._member_reachable(member):
            self.head.qdset.clear_suspicion(member)
            return
        # Shrink the quorum set only from the majority side; keep the
        # replica until reclamation decides the member is truly gone.
        if self._majority_reachable():
            self.head.qdset.remove(member)
            self.ctx.events.incr(cnt.EV_QUORUM_SHRINK)
            self._emit_qdset_change(member, "shrink")
        self._send(member, m.REP_REQ, {}, Category.MAINTENANCE)
        self.ctx.events.incr(cnt.EV_QUORUM_PROBE)
        self._emit_qdset_change(member, "probe")
        self._await(("tr", member), self.cfg.tr, self._on_tr_expire, member)

    def _handle_rep_req(self, msg: Message) -> None:
        if self.node.alive:
            self._send(msg.src, m.REP_ACK,
                       {"is_head": self.head is not None},
                       Category.MAINTENANCE)

    def _handle_rep_ack(self, msg: Message) -> None:
        self._settle(("tr", msg.src))
        if self.head is None:
            return
        if msg.payload.get("is_head") and self.ctx.is_head(msg.src):
            self.head.qdset.add(msg.src)
        elif not msg.payload.get("is_head"):
            # Alive but no longer an allocator (rejoined elsewhere):
            # drop it without reclaiming.
            self.head.qdset.remove(msg.src)
            self.head.replicas.drop(msg.src)
            self._emit_qdset_change(msg.src, "remove")

    def _on_tr_expire(self, member: int) -> None:
        if self.head is None:
            return
        if self._member_reachable(member):
            self.head.qdset.add(member)
            return
        dead_ip = None
        agent = self.ctx.agent_of(member)
        if agent is not None and agent.head is not None:
            dead_ip = agent.head.ip
        self.initiate_reclamation(member, dead_ip)
