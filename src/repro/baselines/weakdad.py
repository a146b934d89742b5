"""Weak duplicate address detection (Vaidya, 2002) — surveyed in the
paper's Section III.

A node configures itself *instantly* with a random address plus a
unique key (derived from its MAC/hardware ID).  Duplicate addresses are
tolerated: link-state routing carries (IP, key) pairs, so packets still
reach the intended node.  A conflict is *detected* when a node sees its
own address advertised with a different key in routing state, at which
point the higher-keyed node picks a new address.

The scheme's selling point is that detection rides on routing traffic
that exists anyway; here the periodic link-state advertisement is
charged to the HELLO category (common substrate traffic) and only the
conflict-resolution re-picks show up as configuration overhead.

Known limitation (noted by the paper): if two conflicting nodes ever
chose the same key the conflict is undetectable — our keys are the
globally unique hardware IDs, so this cannot happen in simulation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.net.agent import Agent
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category
from repro.sim.timers import PeriodicTimer

WD_LSA = "WD_LSA"  # link-state advertisement carrying (ip, key)


@dataclasses.dataclass
class WeakDadConfig:
    """Tunables for the Weak DAD baseline."""

    address_space_bits: int = 10
    lsa_interval: float = 3.0

    @property
    def address_space_size(self) -> int:
        return 1 << self.address_space_bits


class WeakDadAgent(Agent):
    """Per-node Weak DAD."""

    protocol_name = "weakdad"

    def __init__(self, ctx: NetworkContext, node: Node,
                 cfg: Optional[WeakDadConfig] = None) -> None:
        super().__init__(ctx, node)
        self.cfg = cfg or WeakDadConfig()
        self.key = node.node_id  # "based on MAC address or hardware ID"
        # Link-state view: ip -> (key, last_seen).
        self.routing_view: Dict[int, Tuple[int, float]] = {}
        self._lsa_timer: Optional[PeriodicTimer] = None
        self.conflicts_detected = 0

    def on_enter(self) -> None:
        self.entered_at = self.ctx.sim.now
        self._pick_address(initial=True)

    def _pick_address(self, initial: bool = False) -> None:
        rng = self.ctx.sim.streams.get(f"weakdad-{self.node_id}")
        address = rng.randrange(self.cfg.address_space_size)
        if initial:
            # Weak DAD configures immediately: zero-latency, zero-cost.
            self._mark_configured(address, latency_hops=0)
            self._start_lsa()
        else:
            if self.ip is not None:
                self.ctx.unbind_ip(self.ip)
            self.reconfigurations += 1
            self.ip = address
            self.ctx.bind_ip(address, self.node_id)
        self.routing_view[address] = (self.key, self.ctx.sim.now)

    # ------------------------------------------------------------------
    # Link-state advertisements (the carrier of conflict hints)
    # ------------------------------------------------------------------
    def _start_lsa(self) -> None:
        timer = PeriodicTimer(self.ctx.sim, self.cfg.lsa_interval,
                              self._advertise)
        stagger = (self.node_id % 10) / 10.0 * self.cfg.lsa_interval
        timer.start(first_delay=self.cfg.lsa_interval + stagger)
        self._lsa_timer = timer

    def _advertise(self) -> None:
        if not self.is_configured():
            return
        # Link-state routing floods topology anyway; charge as substrate
        # (HELLO) traffic per the scheme's zero-extra-overhead claim.
        self._flood(WD_LSA, {"ip": self.ip, "key": self.key},
                    Category.HELLO)

    def _handle_wd_lsa(self, msg: Message) -> None:
        ip = msg.payload["ip"]
        key = msg.payload["key"]
        if ip == self.ip and key != self.key:
            # Someone else advertises OUR address with a different key:
            # the higher-keyed node yields (deterministic resolution).
            self.conflicts_detected += 1
            if self.key > key:
                self._pick_address(initial=False)
                # The re-pick is the scheme's actual config overhead.
                self.ctx.stats.charge(Category.CONFIG, 1)
                return
        self.routing_view[ip] = (key, self.ctx.sim.now)

    # ------------------------------------------------------------------
    def depart_gracefully(self) -> None:
        # Stateless: nothing to return.
        self._finalize_leave()

    def _stop_timers(self) -> None:
        super()._stop_timers()
        if self._lsa_timer is not None:
            self._lsa_timer.stop()
            self._lsa_timer = None
