"""Stateless query-based duplicate address detection (Perkins et al.,
draft-ietf-manet-autoconf-01) — the stateless scheme surveyed in
Section III.

A new node picks a random candidate address and floods an Address
Request (AREQ); any node already using the address answers with an
Address Reply (AREP).  After ``AREQ_RETRIES`` silent rounds the node
adopts the address.  Simple and evenly distributed, but latency and
overhead are high (every configuration floods the network several
times), and merges are not handled.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.net.agent import Agent
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category

AREQ = "AREQ"
AREP = "AREP"


@dataclasses.dataclass
class DadConfig:
    """Tunables for the stateless DAD baseline."""

    address_space_bits: int = 10
    areq_retries: int = 3
    reply_wait: float = 1.0

    @property
    def address_space_size(self) -> int:
        return 1 << self.address_space_bits


class DadAgent(Agent):
    """Per-node stateless DAD."""

    protocol_name = "dad"

    def __init__(self, ctx: NetworkContext, node: Node,
                 cfg: Optional[DadConfig] = None) -> None:
        super().__init__(ctx, node)
        self.cfg = cfg or DadConfig()
        self._candidate: Optional[int] = None
        self._round = 0
        self._conflicted = False
        self._latency_accum = 0

    def on_enter(self) -> None:
        self.entered_at = self.ctx.sim.now
        self._pick_candidate()
        self._next_round()

    def _pick_candidate(self) -> None:
        rng = self.ctx.sim.streams.get(f"dad-{self.node_id}")
        self._candidate = rng.randrange(self.cfg.address_space_size)
        self._round = 0
        self._conflicted = False

    def _next_round(self) -> None:
        if self.is_configured() or not self.node.alive:
            return
        if self._conflicted:
            self.attempts += 1
            self._pick_candidate()
        if self._round >= self.cfg.areq_retries:
            self._mark_configured(self._candidate, self._latency_accum)
            return
        self._round += 1
        result = self._flood(AREQ, {"address": self._candidate},
                             Category.CONFIG)
        self._latency_accum += result.eccentricity
        self._await(("round", None), self.cfg.reply_wait, self._next_round)

    def _handle_areq(self, msg: Message) -> None:
        if self.is_configured() and self.ip == msg.payload["address"]:
            self._send(msg.src, AREP, {"address": self.ip}, Category.CONFIG)

    def _handle_arep(self, msg: Message) -> None:
        if not self.is_configured():
            self._latency_accum += msg.hops
            self._conflicted = True
