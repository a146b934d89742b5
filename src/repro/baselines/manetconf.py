"""MANETconf (Nesargi & Prakash, INFOCOM 2002) — baseline [1].

Full replication: every node keeps the in-use address set of the whole
network.  A requester asks a neighbor to act as *initiator*; the
initiator picks a candidate address, floods an initiator request, and
may assign only after every known node has assented.  The assignment is
committed with a second flood.  Graceful departures flood an address
cleanup.  Nodes that fail to assent are presumed departed and cleaned
up — that is MANETconf's (expensive) address reclamation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set

from repro.net.agent import Agent
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category
from repro.sim.timers import Timer

MC_REQ = "MC_REQ"              # requester -> initiator
MC_INIT_REQ = "MC_INIT_REQ"    # initiator flood: may I use addr?
MC_OK = "MC_OK"                # assent, unicast back to initiator
MC_NO = "MC_NO"                # veto (address believed in use)
MC_ASSIGN = "MC_ASSIGN"        # initiator -> requester
MC_COMMIT = "MC_COMMIT"        # initiator flood: addr is now in use
MC_RELEASE = "MC_RELEASE"      # departing node flood: addr is free
MC_CLEANUP = "MC_CLEANUP"      # initiator flood: these nodes are gone
MC_NACK = "MC_NACK"


@dataclasses.dataclass
class ManetconfConfig:
    """Tunables for the MANETconf baseline."""

    address_space_bits: int = 10
    reply_timeout: float = 2.0
    config_timeout: float = 4.0
    max_attempts: int = 8

    @property
    def address_space_size(self) -> int:
        return 1 << self.address_space_bits


@dataclasses.dataclass
class _InitiatorSession:
    requester: int
    address: int
    base_latency: int
    expected: Set[int]
    assents: Set[int] = dataclasses.field(default_factory=set)
    farthest_reply: int = 0
    flood_ecc: int = 0
    vetoed: bool = False


class ManetconfAgent(Agent):
    """Per-node MANETconf implementation."""

    protocol_name = "manetconf"

    def __init__(self, ctx: NetworkContext, node: Node,
                 cfg: Optional[ManetconfConfig] = None) -> None:
        super().__init__(ctx, node)
        self.cfg = cfg or ManetconfConfig()
        # Full replica of the network's allocation state.
        self.in_use: Set[int] = set()
        self.pending: Set[int] = set()
        self._sessions: Dict[int, _InitiatorSession] = {}
        self._session_timers: Dict[int, Timer] = {}
        self._session_seq = 0

    # ------------------------------------------------------------------
    # Requester side
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
        initiator = self._nearest_configured()
        if initiator is None:
            # First node in the (sub)network.
            self.in_use = {0}
            self.network_id = (1 << 20) + self.node_id
            self._mark_configured(0, latency_hops=0)
            return
        self._send(initiator[0], MC_REQ, {"lat": 0}, Category.CONFIG)
        self._retry_timer.restart(self.cfg.config_timeout)

    def _on_retry_timeout(self) -> None:
        self._try_configure()

    # ------------------------------------------------------------------
    # Initiator side
    # ------------------------------------------------------------------
    def _pick_candidate(self) -> Optional[int]:
        for address in range(self.cfg.address_space_size):
            if address not in self.in_use and address not in self.pending:
                return address
        return None

    def _handle_mc_req(self, msg: Message) -> None:
        if not self.is_configured():
            self._send(msg.src, MC_NACK, {}, Category.CONFIG)
            return
        address = self._pick_candidate()
        if address is None:
            self._send(msg.src, MC_NACK, {}, Category.CONFIG)
            return
        self._session_seq += 1
        session_id = self.node_id * 100000 + self._session_seq
        # Confirmation is expected from every node in the allocation
        # table (full replication) — including ones that silently left;
        # their missing replies are how MANETconf detects departures.
        expected = {
            nid for nid, agent in self.ctx.agents.items()
            if nid != self.node_id
            and isinstance(agent, ManetconfAgent)
            and agent.ip is not None
            and agent.ip in self.in_use
        }
        session = _InitiatorSession(
            requester=msg.src, address=address,
            base_latency=msg.payload.get("lat", 0) + msg.hops,
            expected=expected,
        )
        self.pending.add(address)
        self._sessions[session_id] = session
        result = self._flood(MC_INIT_REQ, {
            "session": session_id, "address": address,
        }, Category.CONFIG)
        session.flood_ecc = result.eccentricity
        timer = Timer(self.ctx.sim, self._on_session_timeout)
        timer.start(self.cfg.reply_timeout, session_id)
        self._session_timers[session_id] = timer
        if not session.expected:
            self._conclude_session(session_id)

    def _handle_mc_init_req(self, msg: Message) -> None:
        if not self.is_configured():
            return
        address = msg.payload["address"]
        verdict = MC_NO if address in self.in_use else MC_OK
        if verdict == MC_OK:
            self.pending.add(address)
        self._send(msg.src, verdict, {
            "session": msg.payload["session"], "address": address,
        }, Category.CONFIG)

    def _handle_mc_ok(self, msg: Message) -> None:
        session = self._sessions.get(msg.payload["session"])
        if session is None:
            return
        session.assents.add(msg.src)
        session.farthest_reply = max(session.farthest_reply, msg.hops)
        if session.expected <= session.assents:
            self._conclude_session(msg.payload["session"])

    def _handle_mc_no(self, msg: Message) -> None:
        session_id = msg.payload["session"]
        session = self._sessions.get(session_id)
        if session is None:
            return
        session.vetoed = True
        self._conclude_session(session_id)

    def _on_session_timeout(self, session_id: int) -> None:
        """Some nodes never answered: treat them as departed (MANETconf's
        reclamation) and conclude with the assents collected."""
        session = self._sessions.get(session_id)
        if session is None:
            return
        missing = session.expected - session.assents
        if missing:
            self.in_use -= {self._address_of(nid) for nid in missing
                            if self._address_of(nid) is not None}
            self._flood(MC_CLEANUP, {
                "nodes": sorted(missing),
            }, Category.RECLAMATION)
        session.expected = set(session.assents)
        self._conclude_session(session_id)

    def _address_of(self, node_id: int) -> Optional[int]:
        agent = self.ctx.agent_of(node_id)
        return agent.ip if agent is not None else None

    def _conclude_session(self, session_id: int) -> None:
        session = self._sessions.pop(session_id, None)
        if session is None:
            return
        timer = self._session_timers.pop(session_id, None)
        if timer is not None:
            timer.stop()
        self.pending.discard(session.address)
        if session.vetoed:
            self._send(session.requester, MC_NACK, {}, Category.CONFIG)
            return
        # Latency: request leg + flood out + farthest assent back + assign.
        latency = (
            session.base_latency + session.flood_ecc + session.farthest_reply
        )
        self.in_use.add(session.address)
        delivery = self._send(session.requester, MC_ASSIGN, {
            "address": session.address,
            "lat": latency,
        }, Category.CONFIG)
        if delivery.ok:
            self._flood(MC_COMMIT, {"address": session.address},
                        Category.CONFIG)
        else:
            self.in_use.discard(session.address)

    # ------------------------------------------------------------------
    # Requester completion / table maintenance
    # ------------------------------------------------------------------
    def _handle_mc_assign(self, msg: Message) -> None:
        if self.is_configured():
            return
        address = msg.payload["address"]
        # Adopt the initiator's view of the allocation table.
        initiator = self.ctx.agent_of(msg.src)
        if isinstance(initiator, ManetconfAgent):
            self.in_use = set(initiator.in_use)
        self.in_use.add(address)
        self.network_id = msg.network_id
        self._mark_configured(address, msg.payload["lat"] + msg.hops)

    def _handle_mc_nack(self, msg: Message) -> None:
        if not self.is_configured():
            self._retry_timer.restart(self.cfg.reply_timeout)

    def _handle_mc_commit(self, msg: Message) -> None:
        self.pending.discard(msg.payload["address"])
        self.in_use.add(msg.payload["address"])

    def _handle_mc_release(self, msg: Message) -> None:
        self.in_use.discard(msg.payload["address"])

    def _handle_mc_cleanup(self, msg: Message) -> None:
        for node_id in msg.payload["nodes"]:
            address = self._address_of(node_id)
            if address is not None:
                self.in_use.discard(address)

    # ------------------------------------------------------------------
    # Departure
    # ------------------------------------------------------------------
    def depart_gracefully(self) -> None:
        if self.is_configured():
            self._flood(MC_RELEASE, {"address": self.ip}, Category.DEPARTURE)
        self._finalize_leave()
