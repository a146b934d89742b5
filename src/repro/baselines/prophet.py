"""Prophet address allocation (Zhou, Ni & Mutka, INFOCOM 2003) —
reference [6] of the paper's survey.

Each configured node owns the *state* of a pseudo-random sequence
function f.  The first node seeds the sequence; configuring a newcomer
costs a single one-hop exchange: the allocator draws the newcomer's
address and a fresh sequence seed from its own state.  With a good f
and a large address space, different nodes' sequences are unlikely to
collide for a long time — Prophet trades deterministic uniqueness for
O(1) allocation cost and O(1) state.

This implementation uses a splitmix-style mixer over the configured
address space.  As in the original, there is no duplicate detection:
in small address spaces collisions can and do occur, which is exactly
the trade-off the quorum protocol's evaluation framework exposes
(`RunResult.duplicate_addresses`).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.net.agent import Agent
from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category

PR_REQ = "PR_REQ"        # newcomer -> configured node
PR_ASSIGN = "PR_ASSIGN"  # allocator -> newcomer: (address, seed)
PR_NACK = "PR_NACK"

_MASK64 = (1 << 64) - 1


def _splitmix(state: int) -> int:
    """One step of splitmix64 — the sequence function f."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclasses.dataclass
class ProphetConfig:
    """Tunables for the Prophet baseline."""

    address_space_bits: int = 10
    config_timeout: float = 2.0
    max_attempts: int = 8

    @property
    def address_space_size(self) -> int:
        return 1 << self.address_space_bits


class ProphetAgent(Agent):
    """Per-node Prophet allocation."""

    protocol_name = "prophet"

    def __init__(self, ctx: NetworkContext, node: Node,
                 cfg: Optional[ProphetConfig] = None) -> None:
        super().__init__(ctx, node)
        self.cfg = cfg or ProphetConfig()
        self.state: Optional[int] = None  # sequence state once configured
        self.allocations = 0

    # ------------------------------------------------------------------
    def _draw(self) -> int:
        """Advance the sequence; derive an address in the space."""
        assert self.state is not None
        self.state = _splitmix(self.state)
        self.allocations += 1
        return self.state % self.cfg.address_space_size

    def _derive_seed(self) -> int:
        """A fresh, well-separated seed for a newly configured node."""
        assert self.state is not None
        return _splitmix(self.state ^ 0xA5A5A5A5A5A5A5A5)

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
        nearest = self._nearest_configured()
        if nearest is None:
            # First node: seed the sequence from the run's RNG.
            rng = self.ctx.sim.streams.get("prophet-genesis")
            self.state = rng.getrandbits(63) | 1
            self.network_id = (1 << 20) + self.node_id
            self._mark_configured(self._draw(), latency_hops=0)
            return
        self._send(nearest[0], PR_REQ, {"lat": 0}, Category.CONFIG)
        self._retry_timer.restart(self.cfg.config_timeout)

    def _on_retry_timeout(self) -> None:
        self._try_configure()

    # --- allocator side -------------------------------------------------
    def _handle_pr_req(self, msg: Message) -> None:
        if not self.is_configured() or self.state is None:
            self._send(msg.src, PR_NACK, {}, Category.CONFIG)
            return
        address = self._draw()
        seed = self._derive_seed()
        self._send(msg.src, PR_ASSIGN, {
            "address": address,
            "seed": seed,
            "lat": msg.payload.get("lat", 0) + msg.hops,
        }, Category.CONFIG)

    # --- newcomer side ---------------------------------------------------
    def _handle_pr_assign(self, msg: Message) -> None:
        if self.is_configured():
            return
        self.state = msg.payload["seed"]
        self.network_id = msg.network_id
        self._mark_configured(
            msg.payload["address"], msg.payload["lat"] + msg.hops)

    def _handle_pr_nack(self, msg: Message) -> None:
        if not self.is_configured():
            self._retry_timer.restart(self.cfg.config_timeout * 0.5)

    # ------------------------------------------------------------------
    def depart_gracefully(self) -> None:
        # Prophet does not reclaim: the space is assumed huge.
        self._finalize_leave()
