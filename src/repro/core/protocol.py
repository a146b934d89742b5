"""The quorum-based autoconfiguration agent (Sections IV-V).

One :class:`QuorumProtocolAgent` runs per node.  The agent is
event-driven: the scenario runner calls :meth:`on_enter` when the node
arrives, the transport calls :meth:`on_message` on delivery, and timers
drive retries, audits and location updates.  Cross-cutting behaviors are
factored into mixins:

* :class:`~repro.core.location.LocationMixin` — Section IV-C-1;
* :class:`~repro.core.departure.DepartureMixin` — Sections IV-C-1/2;
* :class:`~repro.core.reclamation.ReclamationMixin` — Section IV-D;
* :class:`~repro.core.adjustment.AdjustmentMixin` — Section V-B;
* :class:`~repro.core.partition.PartitionMixin` — Section V-C.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.addrspace.block import Block
from repro.addrspace.records import AddressRecord, AddressStatus
from repro.cluster.roles import ADJACENT_HEAD_HOPS, HEAD_SCOPE_HOPS, Role, decide_role
from repro.core import messages as m
from repro.core.adjustment import AdjustmentMixin
from repro.core.borrowing import select_candidate
from repro.core.config import ProtocolConfig
from repro.core.configuration import PendingConfig
from repro.core.departure import DepartureMixin
from repro.core.location import LocationMixin
from repro.core.partition import PartitionMixin
from repro.core.reclamation import ReclamationMixin
from repro.core.state import CommonState, HeadState
from repro.net.agent import Agent
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category
from repro.net.transport import Scope
from repro.obs import events as obs_ev
from repro.quorum.linear import DynamicLinearVoting
from repro.quorum.replica import Replica
from repro.quorum.system import MajorityQuorumSystem
from repro.quorum.voting import Vote, VoteCollector
from repro.sim.timers import Timer

MAX_ADDRESS_RETRIES = 3  # candidate addresses per configuration attempt
DRY_BANKRUPTCY_THRESHOLD = 12  # dry NACKs before re-founding the network
CONFLICT_TS = 1 << 30  # synthetic timestamp of a cross-owner conflict veto


class QuorumProtocolAgent(
    LocationMixin,
    DepartureMixin,
    ReclamationMixin,
    AdjustmentMixin,
    PartitionMixin,
    Agent,
):
    """Per-node implementation of the quorum-based protocol."""

    protocol_name = "quorum"
    message_types = m.ALL_TYPES

    def __init__(
        self,
        ctx: NetworkContext,
        node: Node,
        cfg: Optional[ProtocolConfig] = None,
    ) -> None:
        # Registration reads ``ip``, which reads the role state.
        self._role = Role.UNCONFIGURED
        self._head: Optional[HeadState] = None
        self._network_id: Optional[int] = None
        self.common: Optional[CommonState] = None
        super().__init__(ctx, node)
        self.cfg = cfg or ProtocolConfig()
        self.borrows_performed = 0

        # Requester-side state.
        self._req_seq = 0
        # Correlation id of the in-flight configuration attempt (0 when
        # tracing is off or no attempt is running); see repro.obs.
        self._corr = 0
        self._init_rounds = 0
        self._init_deferred_until = 0.0

        # Allocator-side state: the open transactions by attempt id, and
        # the addresses they hold against new proposals.  The set cannot
        # be derived from the transactions: two of them can propose one
        # address (take_half does not consult the set, and transactions
        # outlive a re-found), and dropping either one releases it.
        self._pending: Dict[int, PendingConfig] = {}
        self._pending_addresses: Set[int] = set()
        # Owner-side reservations against concurrent borrows of the same
        # address: address -> (attempt_id, expiry time).
        self._borrow_reservations: Dict[int, Tuple[int, float]] = {}
        self._dry_nacks = 0

        # Mixin state.
        self._init_location_state()
        self._init_departure_state()
        self._init_reclamation_state()
        self._init_adjustment_state()
        self._init_partition_state()

    # ==================================================================
    # Role queries
    # ==================================================================
    @property
    def role(self) -> Role:
        return self._role

    @role.setter
    def role(self, value: Role) -> None:
        # Every role transition versions the context's derived head
        # tables (see NetworkContext.role_epoch).
        self._role = value
        self.ctx.note_role(self.node.node_id)
        self._note_allocator()

    @property
    def head(self) -> Optional[HeadState]:
        return self._head

    @head.setter
    def head(self, state: Optional[HeadState]) -> None:
        flipped = (self._head is None) != (state is None)
        self._head = state
        if flipped:
            self.ctx.note_head_state(self.node.node_id)
            self._note_allocator()

    def _can_allocate(self) -> bool:
        return self._role is Role.HEAD and self._head is not None

    @property
    def network_id(self) -> Optional[int]:
        return self._network_id

    @network_id.setter
    def network_id(self, value: Optional[int]) -> None:
        # Network membership changes version the context's derived
        # per-component head tables (see NetworkContext.component_heads).
        self._network_id = value
        self.ctx.note_network(self.node.node_id)

    @property
    def live_vote_timers(self) -> int:
        """Allocator-side attempts still collecting votes."""
        return sum(1 for pending in self._pending.values()
                   if pending.vote_timer is not None)

    @property
    def ip(self) -> Optional[int]:
        head = self.head
        if head is not None:
            return head.ip
        common = self.common
        if common is not None:
            return common.ip
        return None

    # ==================================================================
    # Substrate helpers
    # ==================================================================
    def _send_with_retry(self, dst_id: int, mtype: str,
                         payload: Dict[str, Any], category: Category,
                         retries: int = 3, spacing: float = 1.0,
                         corr: int = 0) -> None:
        """Best-effort delivery across transient disconnection.

        Used for acknowledgements whose loss would make the peer roll
        back state the sender already adopted."""
        delivery = self._send(dst_id, mtype, payload, category, corr=corr)
        if not delivery.ok and retries > 0 and self.node.alive:
            self.ctx.sim.schedule(
                spacing, self._send_with_retry, dst_id, mtype, payload,
                category, retries - 1, spacing, corr)

    # ==================================================================
    # Entry and configuration (requester side) — Section IV-B
    # ==================================================================
    def on_enter(self) -> None:
        """The node has arrived in the area; start acquiring an address."""
        self.entered_at = self.ctx.sim.now
        self.role = Role.REQUESTING
        self._begin_attempt()

    def _begin_attempt(self) -> None:
        if not self.node.alive or self.is_configured():
            return
        if self.attempts >= self.cfg.config_retries * self.cfg.max_r * 4:
            # Flag persistent trouble for the metrics, but keep trying:
            # a node stuck behind a partition storm eventually succeeds.
            self.failed = True
        self.attempts += 1
        self._req_seq += 1
        # One correlation id per attempt: every message and event of
        # this transaction carries it (0 while tracing is disabled).
        obs = self.ctx.obs
        self._corr = obs.new_correlation() if obs else 0

        heads_near = self._rank_by_network(
            self._allocators_within(HEAD_SCOPE_HOPS))
        role, allocator = decide_role(heads_near)
        if role is Role.COMMON:
            assert allocator is not None
            if self.cfg.balance_allocators and len(heads_near) > 1:
                allocator = self._pick_largest_block_allocator(heads_near)
            kind = "common"
        else:
            # With no head in HELLO scope the entrant falls back to
            # asking the whole partition (Section IV-B's "ask any
            # allocator" escape hatch) — served from the connectivity
            # labels as an O(component) member iteration rather than an
            # unbounded BFS flood.  Heads rank by (network id, node id):
            # the hop distance no longer participates, which only
            # matters when one network has several heads beyond HELLO
            # scope and any of them is an equally valid allocator.  With
            # no head at all, the entrant starts a network itself.
            allocators = self.ctx.allocator_ids
            candidates = self._rank_by_network([
                (other, 0)
                for other in self.ctx.topology.component_members(self.node_id)
                if other != self.node_id and other in allocators
                and self.ctx.is_head(other)
            ])
            allocator = candidates[0][0] if candidates else None
            kind = "head" if candidates else "first"
        if obs:
            obs.emit(obs_ev.AttemptStarted(
                time=self.ctx.sim.now, node=self.node_id, corr=self._corr,
                attempt=self._req_seq, kind=kind, target=allocator))
        if allocator is None:
            self._first_node_round()
            return
        request = m.COM_REQ if kind == "common" else m.CH_REQ
        self._send(allocator, request, {"seq": self._req_seq, "lat": 0},
                   Category.CONFIG, corr=self._corr)
        self._retry_timer.restart(self.cfg.config_timeout)

    def _rank_by_network(
        self, heads: List[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        """Order candidate allocators by (network id, hops, id).

        Hello messages carry the sender's network ID (Section V-C), so
        an entering or rejoining node can prefer the oldest network in
        range — without this, a node commanded to leave the losing side
        of a merge could be configured right back into it.
        """
        def network_of(head_id: int) -> int:
            agent = self.ctx.agent_of(head_id)
            network = agent.network_id if agent is not None else None
            return network if network is not None else 1 << 60

        return sorted(heads, key=lambda pair: (
            network_of(pair[0]), pair[1], pair[0]))

    def _pick_largest_block_allocator(
        self, heads_near: List[Tuple[int, int]]
    ) -> int:
        """The Section IV-B alternative: query in-range allocators for
        their available block size and pick the largest.

        The query/response exchange is charged (2 hops per queried head).
        """
        best_id, best_size = heads_near[0][0], -1
        for head_id, hops in heads_near:
            agent = self.ctx.agent_of(head_id)
            if agent is None or not agent.is_allocator():
                continue
            self.ctx.stats.charge(Category.CONFIG, 2 * hops, messages=2)
            size = agent.head.pool.free_count()
            if size > best_size:
                best_id, best_size = head_id, size
        return best_id

    # --- first node / empty neighborhood (T_e, Max_r) -----------------
    def _first_node_round(self) -> None:
        if self.ctx.sim.now < self._init_deferred_until:
            self._retry_timer.restart(
                self._init_deferred_until - self.ctx.sim.now + 0.01)
            return
        self._init_rounds += 1
        msg = Message(mtype=m.INIT_REQ, src=self.node_id, dst=None,
                      payload={"entered_at": self.entered_at},
                      network_id=self.network_id, corr=self._corr)
        self.ctx.transport.send(self.node, None, msg,
                                category=Category.CONFIG,
                                scope=Scope.NEIGHBORS)
        if self._init_rounds >= self.cfg.max_r:
            # No response after Max_r rounds: obtain the whole space.
            self._found_network()
            self._finish_configuration(latency_hops=0, kind="first")
        else:
            self._retry_timer.restart(self.cfg.te)

    # --- shared configuration epilogue ---------------------------------
    def _finish_configuration(self, latency_hops: int,
                              kind: Optional[str] = None) -> None:
        """Take up the role the new address comes with.  ``kind`` names
        how the attempt completed, and ends its span; a bulk bootstrap
        passes none, having run no attempt."""
        assert self.ip is not None
        obs = self.ctx.obs
        if obs and kind is not None:
            obs.emit(obs_ev.ConfigCompleted(
                time=self.ctx.sim.now, node=self.node_id, corr=self._corr,
                address=self.ip, kind=kind, latency_hops=latency_hops))
        self._retry_timer.stop()
        self._rejoining = False
        # Damp merge thrash: stay put for a while after (re)configuring
        # unless explicitly commanded to rejoin.
        self._rejoin_cooldown_until = self.ctx.sim.now + 8.0
        self.role = Role.HEAD if self.head is not None else Role.COMMON
        self.configured_at = self.ctx.sim.now
        if self.config_latency_hops is None:
            self.config_latency_hops = latency_hops
        self.ctx.bind_ip(self.ip, self.node_id)
        if obs:
            obs.emit(obs_ev.RoleAssigned(
                time=self.ctx.sim.now, node=self.node_id, corr=self._corr,
                role=self.role.value, address=self.ip,
                network_id=self.network_id))
        if self.role is Role.HEAD:
            self._start_audit()
        else:
            self._start_location_service()
        self._start_merge_watch()
        if self.on_configured_callback is not None:
            self.on_configured_callback(self)

    # ==================================================================
    # Message dispatch
    # ==================================================================
    def on_message(self, msg: Message) -> None:
        # Merge detection reads every message's network id first.  The
        # role and head setters write allocator state through, so no
        # note follows the handler.
        if not self.node.alive:
            return
        self._observe_network_id(msg)
        handler = self._handlers.get(msg.mtype)
        if handler is not None:
            handler(self, msg)

    # ==================================================================
    # INIT_REQ coordination between unconfigured nodes
    # ==================================================================
    def _handle_init_req(self, msg: Message) -> None:
        if self.is_configured():
            # A configured node nearby: the sender will find us through
            # hello knowledge on its next attempt; nudge it immediately.
            self._send(msg.src, m.INIT_DEFER, {"retry": True}, Category.CONFIG)
            return
        their_entry = msg.payload.get("entered_at") or 0.0
        mine = self.entered_at if self.entered_at is not None else float("inf")
        if (mine, self.node_id) < (their_entry, msg.src):
            # We entered first: tell the later node to back off so only
            # one first head forms per neighborhood.
            self._send(msg.src, m.INIT_DEFER, {"retry": False}, Category.CONFIG)

    def _handle_init_defer(self, msg: Message) -> None:
        if self.is_configured():
            return
        self._init_rounds = 0
        backoff = self.cfg.te * self.cfg.max_r
        self._init_deferred_until = self.ctx.sim.now + backoff
        self._retry_timer.restart(backoff + 0.01)

    def _on_retry_timeout(self) -> None:
        if self.is_configured() or not self.node.alive:
            return
        if self._init_rounds > 0 and self._init_rounds < self.cfg.max_r:
            self._first_node_round()
        else:
            obs = self.ctx.obs
            if obs and self._corr:
                # Terminal for the abandoned attempt's span; the retry
                # below starts a fresh span with a fresh correlation id.
                obs.emit(obs_ev.ConfigTimeout(
                    time=self.ctx.sim.now, node=self.node_id,
                    corr=self._corr, attempt=self._req_seq))
            self._begin_attempt()

    # ==================================================================
    # The allocation transaction, allocator side (Fig. 2, Table 1).  A
    # COM_REQ asks for one address, which goes to the vote at once; a
    # CH_REQ asks for a block, proposed (CH_PRP) and confirmed (CH_CNF)
    # before the vote.  From the vote on, both kinds share one path.
    # ==================================================================
    def _handle_com_req(self, msg: Message) -> None:
        if not self.is_allocator():
            self._refuse(msg, "not-allocator")
            return
        assert self.head is not None
        base_latency = msg.payload.get("lat", 0) + msg.hops
        candidate = select_candidate(
            self.head, self._reserved_addresses(),
            borrowing_enabled=self.cfg.borrowing_enabled,
        )
        if candidate is None:
            self._relay_or_nack(msg, base_latency)
            return
        self._dry_nacks = 0
        self._start_vote(self._open(msg, *candidate))

    def _handle_ch_req(self, msg: Message) -> None:
        if not self.is_allocator():
            self._refuse(msg, "not-allocator")
            return
        assert self.head is not None
        block = self.head.pool.take_half()
        if block is None:
            self._refuse(msg, "dry")
            return
        pending = self._open(msg, block.start, block=block)
        delivery = self._send(msg.src, m.CH_PRP, {
            "seq": pending.req_seq,
            "attempt": pending.attempt_id,
            "block": (block.start, block.size),
            "lat": pending.latency_hops,
        }, Category.CONFIG, corr=pending.corr)
        if not delivery.ok:
            self._abort_attempt(pending, reason="proposal-undeliverable")

    def _handle_ch_cnf(self, msg: Message) -> None:
        pending = self._pending.get(msg.payload["attempt"])
        if pending is None or pending.kind != "head":
            return
        pending.latency_hops = msg.payload["lat"] + msg.hops
        self._start_vote(pending)

    def _open(self, msg: Message, address: int,
              owner_id: Optional[int] = None,
              block: Optional[Block] = None) -> PendingConfig:
        """Open the transaction for an accepted request, proposing
        ``address`` of ``owner_id``'s space (``None``: ours)."""
        pending = PendingConfig(
            attempt_id=next(self.ctx.attempt_ids),
            requester=msg.payload.get("origin", msg.src),
            address=address,
            owner_id=owner_id if owner_id is not None else self.node_id,
            corr=msg.corr, block=block,
            latency_hops=msg.payload.get("lat", 0) + msg.hops,
            relay_of=msg.src if "origin" in msg.payload else None,
            req_seq=msg.payload.get("seq"),
        )
        self._pending[pending.attempt_id] = pending
        self._pending_addresses.add(address)
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.ConfigRequested(
                time=self.ctx.sim.now, node=self.node_id, corr=pending.corr,
                attempt=pending.attempt_id, requester=pending.requester,
                kind=pending.kind, address=address, owner=pending.owner_id,
                relayed=pending.relay_of is not None))
        return pending

    def _refuse(self, msg: Message, reason: str, nack: bool = True) -> None:
        """Refuse a request no transaction was opened for: close the
        requester's span explicitly, then NACK the sender in the
        request's own kind."""
        obs = self.ctx.obs
        if obs and msg.corr:
            obs.emit(obs_ev.ConfigAborted(
                time=self.ctx.sim.now, node=self.node_id, corr=msg.corr,
                attempt=0, requester=msg.payload.get("origin", msg.src),
                reason=reason))
        if nack:
            refusal = m.CH_NACK if msg.mtype == m.CH_REQ else m.COM_NACK
            self._send(msg.src, refusal, {"seq": msg.payload.get("seq")},
                       Category.CONFIG, corr=msg.corr)

    def _relay_or_nack(self, msg: Message, base_latency: int) -> None:
        """Section V-A: out of addresses entirely — act as an agent and
        forward the request to our own configurer.  Also kick off the
        out-of-addresses reclamation audit (Section IV-D)."""
        assert self.head is not None
        self._initiate_self_audit()
        self._dry_nacks += 1
        if self._dry_nacks >= DRY_BANKRUPTCY_THRESHOLD:
            # The whole network's space has been bled dry (sustained
            # churn can strand blocks with no owner) and the audit
            # recovered nothing usable: re-found with a fresh space.
            self._dry_nacks = 0
            self._refuse(msg, "bankrupt", nack=False)
            self._become_isolated_network(flood_component=True)
            return
        configurer = self.head.configurer_id
        if (
            self.cfg.borrowing_enabled
            and configurer is not None
            and configurer != msg.src
            and self.ctx.is_head(configurer)
        ):
            relayed = dict(msg.payload)
            relayed["lat"] = base_latency
            relayed["origin"] = msg.src
            self._send(configurer, m.COM_REQ, relayed, Category.CONFIG,
                       corr=msg.corr)
        else:
            self._refuse(msg, "dry")

    # ==================================================================
    # Quorum voting — Sections II-C/D, IV-B
    # ==================================================================
    def _reserved_addresses(self) -> Set[int]:
        """Addresses no new proposal may use: those our open
        transactions hold plus live reservations made for foreign
        borrowers."""
        now = self.ctx.sim.now
        reserved = set(self._pending_addresses)
        for address, (_attempt, expiry) in self._borrow_reservations.items():
            if expiry > now:
                reserved.add(address)
        return reserved

    def _start_vote(self, pending: PendingConfig) -> None:
        assert self.head is not None
        universe = set(self.head.qdset.active_members()) | {self.node_id}
        if self.cfg.use_linear_voting:
            system = DynamicLinearVoting(distinguished=pending.owner_id)
        else:
            system = MajorityQuorumSystem()
        own_record = self._view_of(pending.owner_id, pending.address,
                                   pending.block)
        pending.collector = VoteCollector(pending.address, universe, system)
        pending.collector.add_vote(
            Vote(self.node_id, pending.address, own_record)
        )
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.VoteStarted(
                time=self.ctx.sim.now, node=self.node_id, corr=pending.corr,
                attempt=pending.attempt_id, address=pending.address,
                owner=pending.owner_id, universe=len(universe),
                quorum="linear" if self.cfg.use_linear_voting else "majority"))
            # The allocator's own verdict counts toward the quorum too.
            obs.emit(obs_ev.VoteReceived(
                time=self.ctx.sim.now, node=self.node_id, corr=pending.corr,
                attempt=pending.attempt_id, voter=self.node_id,
                address=pending.address, status=own_record.status.value,
                timestamp=own_record.timestamp))
        payload: Dict[str, Any] = {
            "attempt": pending.attempt_id,
            "address": pending.address,
            "owner_id": pending.owner_id,
        }
        if pending.block is not None:
            payload["block"] = (pending.block.start, pending.block.size)
        for member in sorted(universe - {self.node_id}):
            delivery = self._send(member, m.QUORUM_CLT, payload,
                                  Category.CONFIG, corr=pending.corr)
            if delivery.ok:
                pending.vote_sent[member] = delivery.hops
            elif self.cfg.adjustment_enabled:
                self._suspect_member(member)
        pending.vote_timer = Timer(self.ctx.sim, self._on_vote_timeout)
        pending.vote_timer.start(self.cfg.config_timeout * 0.75,
                                 pending.attempt_id)
        self._maybe_decide(pending)

    def _handle_quorum_clt(self, msg: Message) -> None:
        if self.head is None:
            return
        if self._fence_if_reclaimed(msg.src):
            return  # a reclaimed zombie must rejoin, not collect votes
        owner_id = msg.payload["owner_id"]
        address = msg.payload["address"]
        block = msg.payload.get("block")
        if block is None and owner_id == self.node_id:
            record = self._owner_borrow_vote(address, msg.payload["attempt"])
        else:
            record = self._view_of(owner_id, address,
                                   Block(*block) if block is not None else None)
        # Quorum expansion: a voting allocator within three hops belongs
        # in our QDSet (Section V-B).
        self._consider_new_neighbor(msg.src)
        conflict = self._cross_owner_conflict(msg.src, owner_id, address,
                                              msg.payload.get("block"))
        self._send(msg.src, m.QUORUM_CFM, {
            "attempt": msg.payload["attempt"],
            "conflict": conflict,
            **self._record_payload(owner_id, address, record),
        }, Category.CONFIG, corr=msg.corr)

    def _cross_owner_conflict(self, proposer: int, owner_id: int,
                              address: int,
                              block: Optional[Tuple[int, int]]) -> bool:
        """Does a *different* live head's state also cover this address?

        Churn (returns, rollbacks, absorptions racing each other) can
        momentarily leave two heads believing they own the same range;
        the quorum vote is the safety net that keeps such inconsistency
        from turning into a duplicate assignment.
        """
        assert self.head is not None
        addresses = (
            list(Block(*block).addresses()) if block is not None else [address]
        )
        for addr in addresses:
            if (
                owner_id != self.node_id
                and proposer != self.node_id
                and addr in self.head.pool.allocated
            ):
                return True
            for other_owner, replica in self.head.replicas.items():
                if other_owner in (owner_id, proposer):
                    continue
                if not self.ctx.is_head(other_owner):
                    continue
                if not replica.covers(addr):
                    continue
                peek = replica.ledger.peek(addr)
                if peek is not None and peek.status is AddressStatus.ASSIGNED:
                    return True
        return False

    def _owner_borrow_vote(self, address: int, attempt: int) -> AddressRecord:
        """Vote on a borrow of our own address, serializing borrowers.

        The owner is the serialization point for its space: while one
        borrow attempt is in flight, competing attempts see the address
        as taken.  The returned record uses a *virtual* timestamp one
        above the stored one so the owner's verdict dominates stale
        replica ties; the stored ledger is not modified.
        """
        assert self.head is not None
        record = self.head.ledger.get(address)
        vote = AddressRecord(record.status, record.timestamp + 1, record.holder)
        now = self.ctx.sim.now
        reservation = self._borrow_reservations.get(address)
        if (
            record.status is not AddressStatus.FREE
            or not self.head.pool.is_free(address)
            # We are proposing this address ourselves right now.
            or address in self._pending_addresses
            or (reservation is not None and reservation[1] > now
                and reservation[0] != attempt)
        ):
            vote.status = AddressStatus.ASSIGNED
            return vote
        self._borrow_reservations[address] = (
            attempt, now + 2 * self.cfg.config_timeout)
        vote.status = AddressStatus.FREE
        return vote

    def _view_of(self, owner_id: int, address: int,
                 block: Optional[Block]) -> AddressRecord:
        """Our record of a proposal in ``owner_id``'s space (our ledger
        or our replica of theirs): the address's record, or for a block
        a summary — the latest timestamp, ASSIGNED if any address is."""
        assert self.head is not None
        if owner_id == self.node_id:
            ledger = self.head.ledger
        else:
            replica = self.head.replicas.get(owner_id)
            if replica is None:
                return AddressRecord()
            ledger = replica.ledger
        if block is None:
            return ledger.get(address)
        summary = AddressRecord()
        for addr in block.addresses():
            record = ledger.peek(addr)
            if record is not None:
                summary.timestamp = max(summary.timestamp, record.timestamp)
                if record.status is AddressStatus.ASSIGNED:
                    summary.status = AddressStatus.ASSIGNED
        return summary

    def _handle_quorum_cfm(self, msg: Message) -> None:
        if self.head is None:
            return
        pending = self._pending.get(msg.payload["attempt"])
        if pending is None or pending.collector is None:
            return
        record = self._payload_record(msg.payload)
        if msg.payload.get("conflict"):
            # Cross-owner conflict veto: dominate every honest record,
            # and never let _learn_latest adopt this synthetic entry.
            record = AddressRecord(AddressStatus.ASSIGNED, CONFLICT_TS, None)
        pending.collector.add_vote(Vote(msg.src, pending.address, record))
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.VoteReceived(
                time=self.ctx.sim.now, node=self.node_id, corr=pending.corr,
                attempt=pending.attempt_id, voter=msg.src,
                address=pending.address, status=record.status.value,
                timestamp=record.timestamp,
                conflict=bool(msg.payload.get("conflict"))))
        if self.cfg.adjustment_enabled:
            self._clear_suspicion(msg.src)
        self._maybe_decide(pending)

    def _on_vote_timeout(self, attempt_id: int) -> None:
        pending = self._pending.get(attempt_id)
        if pending is None or pending.collector is None:
            return
        pending.vote_timer = None
        if pending.collector.decide() is not None:
            return  # already decided (a stranded borrow: see _maybe_decide)
        obs = self.ctx.obs
        if obs:
            responders = pending.collector.responders
            universe = pending.collector.universe
            obs.emit(obs_ev.VoteTimeout(
                time=self.ctx.sim.now, node=self.node_id, corr=pending.corr,
                attempt=pending.attempt_id, address=pending.address,
                responders=len(responders), universe=len(universe),
                missing=tuple(sorted(universe - responders))))
        if self.cfg.adjustment_enabled:
            for member in pending.collector.universe - pending.collector.responders:
                if member != self.node_id:
                    self._suspect_member(member)
        self._abort_attempt(pending, reason="vote-timeout")

    def _maybe_decide(self, pending: PendingConfig) -> None:
        assert pending.collector is not None
        if pending.committed:
            return  # late votes must not re-commit the grant
        decision = pending.collector.decide()
        if decision is None:
            return
        if (
            decision
            and pending.owner_id != self.node_id
            and pending.owner_id not in pending.collector.responders
        ):
            # Borrowing requires the owner's own (reserving) vote; wait
            # for it.  If it never arrives, nothing aborts the attempt:
            # the vote timeout sees a decided collector and returns, so
            # the allocator sends no NACK and the address stays held
            # until a rejoin clears the open transactions.
            return
        pending.disarm()
        obs = self.ctx.obs
        if obs:
            latest = pending.collector.latest_record()
            obs.emit(obs_ev.VoteDecided(
                time=self.ctx.sim.now, node=self.node_id, corr=pending.corr,
                attempt=pending.attempt_id, address=pending.address,
                granted=bool(decision),
                deciding_ts=latest.timestamp if latest is not None else 0,
                responders=len(pending.collector.responders),
                universe=len(pending.collector.universe)))
        if decision:
            self._commit(pending)
        else:
            self._learn_latest(pending)
            self._retry_with_new_address(pending)

    def _learn_latest(self, pending: PendingConfig) -> None:
        """A fresher record surfaced during voting: adopt it."""
        assert self.head is not None and pending.collector is not None
        latest = pending.collector.latest_record()
        if latest is None or pending.block is not None:
            return
        if latest.timestamp >= CONFLICT_TS:
            return  # synthetic conflict veto, not real ledger state
        if pending.owner_id == self.node_id:
            if self.head.ledger.apply(pending.address, latest):
                if latest.status is AddressStatus.ASSIGNED:
                    self.head.pool.allocate(pending.address)
        else:
            replica = self.head.replicas.get(pending.owner_id)
            if replica is not None:
                replica.ledger.apply(pending.address, latest)

    def _retry_with_new_address(self, pending: PendingConfig) -> None:
        assert self.head is not None
        self._pending_addresses.discard(pending.address)
        pending.latency_hops += pending.quorum_round_trip()
        pending.address_retries += 1
        if pending.address_retries >= MAX_ADDRESS_RETRIES or pending.kind == "head":
            self._abort_attempt(pending, reason="address-retries")
            return
        candidate = select_candidate(
            self.head, self._reserved_addresses(),
            borrowing_enabled=self.cfg.borrowing_enabled,
        )
        if candidate is None:
            self._abort_attempt(pending, reason="dry")
            return
        pending.address, owner = candidate
        pending.owner_id = owner if owner is not None else self.node_id
        pending.vote_sent.clear()
        self._pending_addresses.add(pending.address)
        self._start_vote(pending)

    def _abort_attempt(self, pending: PendingConfig, reason: str,
                       nack: bool = True) -> None:
        """Close the transaction unfulfilled: a block goes back to the
        pool, the span ends, and the requester is NACKed in the
        transaction's kind."""
        self._drop_pending(pending)
        if pending.block is not None and self.head is not None:
            self.head.pool.absorb_block(pending.block)
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.ConfigAborted(
                time=self.ctx.sim.now, node=self.node_id, corr=pending.corr,
                attempt=pending.attempt_id, requester=pending.requester,
                reason=reason))
        if nack:
            refusal = m.CH_NACK if pending.kind == "head" else m.COM_NACK
            self._send(pending.requester, refusal,
                       {"seq": pending.req_seq}, Category.CONFIG,
                       corr=pending.corr)

    def _drop_pending(self, pending: PendingConfig) -> None:
        self._pending.pop(pending.attempt_id, None)
        self._pending_addresses.discard(pending.address)
        pending.disarm()

    # ==================================================================
    # Commit — write the update into the quorum, then grant
    # ==================================================================
    def _commit(self, pending: PendingConfig) -> None:
        assert self.head is not None
        pending.committed = True
        pending.latency_hops += pending.quorum_round_trip()
        # Probe the address, or every address of the block.  On a
        # conflict, book the truth in our own space and give the proposal
        # up: a common attempt retries with another address, a head grant
        # aborts with its block back in the pool (booked after, so the
        # next take_half carves around the conflicts).
        block = pending.block
        addresses = block.addresses() if block is not None else [pending.address]
        conflicts = [address for address in addresses
                     if self._acd_conflict(address, pending.requester)]
        if conflicts:
            if block is not None:
                self._abort_attempt(pending, reason="acd-conflict")
            if pending.owner_id == self.node_id:
                for address in conflicts:
                    self.head.pool.allocate(address)
                    self.head.ledger.mark_assigned(
                        address, self.ctx.resolve_ip(address))
            if block is None:
                self._retry_with_new_address(pending)
            return
        record = self._write_grant(pending)
        if record is not None:
            self._grant(pending, record)

    def _acd_conflict(self, address: int, requester: int) -> bool:
        """Address-conflict detection (RFC 5227-style) at commit time.

        The substrate's IP registry stands in for an ARP probe: if the
        address is already answered for by a *different, alive* node of
        our network, the assignment would be a duplicate no matter what
        the quorum believed — deep failure interleavings (forked
        ownership histories across rejoin/reclamation races) can leave
        replicas unanimously stale.  The probe is the practical last
        line of defense any real deployment layers on an allocator.
        """
        bound = self.ctx.resolve_ip(address)
        if bound is None or bound == requester:
            return False
        holder = self.ctx.agent_of(bound)
        if holder is None or not holder.node.alive:
            return False
        return holder.network_id == self.network_id

    def _write_grant(self, pending: PendingConfig) -> Optional[AddressRecord]:
        """Book the grant in the owner's records: the record to write
        back, or ``None`` when the attempt retried or aborted instead."""
        assert self.head is not None
        address = pending.address
        if pending.owner_id == self.node_id:
            # A block left the pool when it was proposed.
            if pending.block is None and self.head.pool.allocate(address) is None:
                # Lost to a concurrent local assignment; retry.
                self._retry_with_new_address(pending)
                return None
            return self.head.ledger.mark_assigned(address, pending.requester)
        replica = self.head.replicas.get(pending.owner_id)
        if replica is None:
            self._abort_attempt(pending, reason="no-replica")
            return None
        record = replica.ledger.mark_assigned(address, pending.requester)
        # The owner is the serialization point for its space: the
        # borrow only stands if the commit reaches it.  An owner
        # that voted FREE but became unreachable before the commit
        # would let its reservation lapse and re-grant the address.
        owner_commit = self._send(
            pending.owner_id, m.QUORUM_UPD,
            self._record_payload(pending.owner_id, address, record),
            Category.CONFIG, corr=pending.corr)
        if not owner_commit.ok:
            replica.ledger.mark_free(address)
            self._abort_attempt(pending, reason="owner-unreachable")
            return None
        self.borrows_performed += 1
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.AddressBorrowed(
                time=self.ctx.sim.now, node=self.node_id,
                corr=pending.corr, owner=pending.owner_id,
                address=address, requester=pending.requester))
        return record

    def _grant(self, pending: PendingConfig, record: AddressRecord) -> None:
        """Send the grant, write it back, and schedule its cleanup.  An
        undeliverable block grant aborts at once, with no NACK."""
        assert self.head is not None
        block = pending.block
        payload: Dict[str, Any] = {
            "seq": pending.req_seq,
            "attempt": pending.attempt_id,
            "allocator_ip": self.head.ip,
            "allocator_id": self.node_id,
            "network_id": self.network_id,
            "lat": pending.latency_hops,
        }
        if block is None:
            payload["address"] = pending.address
        else:
            payload["block"] = (block.start, block.size)
        grant = m.COM_CFG if block is None else m.CH_CFG
        delivery = self._send(pending.requester, grant, payload,
                              Category.CONFIG, corr=pending.corr)
        pending.cfg_delivered = delivery.ok
        if block is not None and not delivery.ok:
            self._abort_attempt(pending, reason="grant-undeliverable",
                                nack=False)
            return
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.ConfigCommitted(
                time=self.ctx.sim.now, node=self.node_id, corr=pending.corr,
                attempt=pending.attempt_id, requester=pending.requester,
                address=pending.address, kind=pending.kind,
                borrowed=pending.owner_id != self.node_id,
                latency_hops=pending.latency_hops))
        self._broadcast_update(pending.owner_id, pending.address, record,
                               Category.CONFIG, corr=pending.corr)
        if block is None:
            self.head.configured[pending.address] = pending.requester
        else:
            # The donated block leaves our space; refresh replicas so
            # QDSet members stop treating it as ours.
            self._refresh_replica_at_members(want_ack=False)
        self.ctx.sim.schedule(
            4 * self.cfg.config_timeout, self._grant_cleanup,
            pending.attempt_id)

    @staticmethod
    def _record_payload(owner_id: int, address: int,
                        record: AddressRecord) -> Dict[str, Any]:
        """One address record of ``owner_id``'s space, as QUORUM_UPD
        writes it and QUORUM_CFM votes with it."""
        return {
            "owner_id": owner_id,
            "address": address,
            "ts": record.timestamp,
            "status": record.status.value,
            "holder": record.holder,
        }

    @staticmethod
    def _payload_record(payload: Dict[str, Any]) -> AddressRecord:
        return AddressRecord(AddressStatus(payload["status"]), payload["ts"],
                             payload.get("holder"))

    def _broadcast_update(self, owner_id: int, address: int,
                          record: AddressRecord, category: Category,
                          corr: int = 0) -> None:
        """QUORUM_UPD: commit the write at every replica (and the owner)."""
        assert self.head is not None
        targets = set(self.head.qdset.active_members())
        if owner_id != self.node_id:
            targets.add(owner_id)
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.WriteBack(
                time=self.ctx.sim.now, node=self.node_id, corr=corr,
                owner=owner_id, address=address,
                status=record.status.value, timestamp=record.timestamp,
                targets=tuple(sorted(targets))))
        payload = self._record_payload(owner_id, address, record)
        for target in sorted(targets):
            self._send(target, m.QUORUM_UPD, payload, category, corr=corr)

    def _handle_quorum_upd(self, msg: Message) -> None:
        if self.head is None:
            return
        owner_id = msg.payload["owner_id"]
        record = self._payload_record(msg.payload)
        address = msg.payload["address"]
        if owner_id == self.node_id:
            # Someone borrowed from (or returned to) our space.
            self._borrow_reservations.pop(address, None)
            if self.head.ledger.apply(address, record):
                if record.status is AddressStatus.ASSIGNED:
                    self.head.pool.allocate(address)
                    self.head.configured.setdefault(address, record.holder or -1)
                else:
                    self.head.pool.release(address)
                    self.head.configured.pop(address, None)
            return
        replica = self.head.replicas.get(owner_id)
        if replica is not None:
            replica.ledger.apply(address, record)

    # ==================================================================
    # The grant's outcome: acknowledged, declined, or neither
    # ==================================================================
    def _handle_com_ack(self, msg: Message) -> None:
        pending = self._pending.get(msg.payload.get("attempt"))
        if pending is None:
            return
        if pending.block is not None and self.head is not None:
            # A block is booked to its head once acknowledged; a common
            # grant was booked when it was sent.
            self.head.configured[pending.block.start] = pending.requester
        self._drop_pending(pending)

    _handle_ch_ack = _handle_com_ack

    def _rollback_grant(self, pending: PendingConfig) -> None:
        """Return a declined or undelivered grant to its owner's space
        and write the release back, instead of leaking it."""
        self._drop_pending(pending)
        if self.head is None:
            return
        address, block = pending.address, pending.block
        if pending.owner_id == self.node_id:
            if block is not None:
                self.head.pool.absorb_block(block)
            elif not self.head.pool.release(address):
                return
            record = self.head.ledger.mark_free(address)
            self.head.configured.pop(address, None)
        else:
            replica = self.head.replicas.get(pending.owner_id)
            if replica is None:
                return
            record = replica.ledger.mark_free(address)
        self._broadcast_update(pending.owner_id, address, record,
                               Category.CONFIG, corr=pending.corr)
        if block is not None:
            self._refresh_replica_at_members(want_ack=False)

    def _handle_com_decline(self, msg: Message) -> None:
        pending = self._pending.get(msg.payload.get("attempt"))
        if pending is not None:
            self._rollback_grant(pending)

    _handle_ch_decline = _handle_com_decline

    def _grant_cleanup(self, attempt_id: int) -> None:
        """No acknowledgement arrived: decide the grant's fate.

        A grant that never reached the requester is rolled back.  A
        *delivered* grant always stands, even without an ACK: the
        requester may be holding the address behind a transient
        partition, and rolling it back would mint a duplicate the
        moment it returns.  If the requester really died, the address
        leaks until the out-of-addresses audit (Section IV-D) confirms
        the death and recovers it — a leak is repairable, a duplicate
        is not.
        """
        pending = self._pending.get(attempt_id)
        if pending is None:
            return
        if not pending.cfg_delivered:
            self._rollback_grant(pending)
        else:
            self._drop_pending(pending)

    # ==================================================================
    # The allocation transaction, requester side.  The ACK and DECLINE
    # sends stay in each handler: the transition table allows each grant
    # only its own kind's replies.
    # ==================================================================
    def _handle_com_nack(self, msg: Message) -> None:
        if self.is_configured():
            return
        self._retry_timer.restart(self.cfg.config_timeout * 0.5)

    _handle_ch_nack = _handle_com_nack

    def _handle_ch_prp(self, msg: Message) -> None:
        if self.is_configured():
            self._send(msg.src, m.CH_DECLINE, {
                "attempt": msg.payload.get("attempt"),
            }, Category.CONFIG, corr=msg.corr)
            return
        self._send(msg.src, m.CH_CNF, {
            "attempt": msg.payload["attempt"],
            "lat": msg.payload["lat"] + msg.hops,
        }, Category.CONFIG, corr=msg.corr)

    def _handle_com_cfg(self, msg: Message) -> None:
        address = msg.payload["address"]
        reply = {"attempt": msg.payload.get("attempt")}
        if self.is_configured():
            # Re-acknowledge a duplicate of the grant we accepted;
            # decline any other, so the allocator rolls it back.
            held = self.common is not None and self.common.ip == address
            self._send(msg.src, m.COM_ACK if held else m.COM_DECLINE,
                       reply, Category.CONFIG, corr=msg.corr)
            return
        self.common = CommonState(
            ip=address,
            configurer_id=msg.payload.get("allocator_id", msg.src),
            configurer_ip=msg.payload["allocator_ip"],
        )
        self.network_id = msg.payload.get("network_id")
        self._send_with_retry(msg.src, m.COM_ACK, reply, Category.CONFIG,
                              corr=msg.corr)
        self._complete_grant(msg)

    def _handle_ch_cfg(self, msg: Message) -> None:
        block = Block(*msg.payload["block"])
        reply = {"attempt": msg.payload.get("attempt")}
        if self.is_configured():
            # As for COM_CFG, with the block's first address.
            held = self.head is not None and self.head.ip == block.start
            self._send(msg.src, m.CH_ACK if held else m.CH_DECLINE,
                       reply, Category.CONFIG, corr=msg.corr)
            return
        self.head = HeadState(
            block, self.node_id,
            configurer_id=msg.payload.get("allocator_id", msg.src),
            configurer_ip=msg.payload["allocator_ip"],
        )
        self.network_id = msg.payload.get("network_id")
        self._send_with_retry(msg.src, m.CH_ACK, reply, Category.CONFIG,
                              corr=msg.corr)
        self._complete_grant(msg)
        self._initialize_head_neighborhood()

    def _complete_grant(self, msg: Message) -> None:
        """The accepted grant's epilogue, once the ACK is on its way."""
        self.config_latency_hops = msg.payload["lat"] + msg.hops
        if self.ctx.obs:
            # The requester's correlation id rode the whole exchange;
            # adopt it so the span's terminal lands in the right tree.
            self._corr = msg.corr
        self._finish_configuration(
            self.config_latency_hops,
            kind="common" if self.head is None else "head")

    # ==================================================================
    # Replica distribution / QDSet initialization
    # ==================================================================
    def _replica_snapshot(self) -> Dict[str, Any]:
        assert self.head is not None
        self.head.snapshot_version += 1
        return {
            "ver": self.head.snapshot_version,
            "owner_id": self.node_id,
            "owner_ip": self.head.ip,
            "blocks": [(b.start, b.size) for b in self.head.pool.snapshot_blocks()],
            "records": [
                (a, r.timestamp, r.status.value, r.holder)
                for a, r in self.head.ledger.items()
            ],
            # The expected holder set of this replica (for absorber
            # election during reclamation).
            "qdset": self.head.qdset.members(),
        }

    def _same_network_head(self, head_id: int) -> bool:
        """Quorum peers must belong to our network: replicating or
        borrowing across network boundaries would mix two address
        spaces that merely share integer values."""
        agent = self.ctx.agent_of(head_id)
        return agent is not None and agent.network_id == self.network_id

    def _initialize_head_neighborhood(self) -> None:
        """A newly configured head replicates its space at adjacent heads
        and learns theirs in return (Section IV-C-2)."""
        assert self.head is not None
        for head_id, _hops in self._allocators_within(ADJACENT_HEAD_HOPS):
            if head_id == self.node_id or not self._same_network_head(head_id):
                continue
            self.head.qdset.add(head_id)
            snapshot = self._replica_snapshot()
            snapshot["want_ack"] = True
            self._send(head_id, m.REPLICA_DIST, snapshot, Category.MAINTENANCE)

    def _refresh_replica_at_members(self, want_ack: bool) -> None:
        assert self.head is not None
        snapshot = self._replica_snapshot()
        snapshot["want_ack"] = want_ack
        for member in self.head.qdset.active_members():
            self._send(member, m.REPLICA_DIST, snapshot, Category.MAINTENANCE)

    def _install_replica_from(self, payload: Dict[str, Any]) -> None:
        assert self.head is not None
        blocks = [Block(s, z) for s, z in payload["blocks"]]
        replica = Replica(payload["owner_id"], blocks,
                          holders=set(payload.get("qdset", ())),
                          version=payload.get("ver", 0))
        for address, ts, status, holder in payload["records"]:
            replica.ledger.apply(
                address, AddressRecord(AddressStatus(status), ts, holder))
        self.head.replicas.install(replica)

    def _handle_replica_dist(self, msg: Message) -> None:
        if self.head is None or msg.network_id != self.network_id:
            return
        if self._fence_if_reclaimed(msg.src):
            return
        self._install_replica_from(msg.payload)
        self._consider_new_neighbor(msg.src)
        if msg.payload.get("want_ack"):
            snapshot = self._replica_snapshot()
            self._send(msg.src, m.REPLICA_ACK, snapshot, Category.MAINTENANCE)

    def _handle_replica_ack(self, msg: Message) -> None:
        if self.head is None or msg.network_id != self.network_id:
            return
        self._install_replica_from(msg.payload)
        self._consider_new_neighbor(msg.src)

    def _consider_new_neighbor(self, head_id: int) -> None:
        """Add a head within three hops to the QDSet (quorum expansion)."""
        if self.head is None or head_id == self.node_id:
            return
        if head_id in self.head.qdset or head_id in self._reclaimed:
            return
        if not self.ctx.is_head(head_id) or not self._same_network_head(head_id):
            return
        hops = self.ctx.topology.hops(self.node_id, head_id,
                                      max_hops=ADJACENT_HEAD_HOPS)
        if hops is not None:
            self.head.qdset.add(head_id)
            self._emit_qdset_change(head_id, "add")

    # ==================================================================
    # Shared network-id observation (partition/merge detection input)
    # ==================================================================
    def _observe_network_id(self, msg: Message) -> None:
        if (
            msg.network_id is not None
            and self.network_id is not None
            and msg.network_id != self.network_id
        ):
            self._on_foreign_network_id(msg.network_id, msg.src)

    # ==================================================================
    # Lifecycle teardown
    # ==================================================================
    def _stop_timers(self) -> None:
        super()._stop_timers()
        for pending in self._pending.values():
            pending.disarm()
        self._stop_location_service()
        self._stop_audit()
        self._stop_merge_watch()
        self._stop_adjustment_timers()
        self._stop_reclamation_timers()
