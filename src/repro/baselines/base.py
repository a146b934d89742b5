"""Shared agent interface for all autoconfiguration protocols.

The scenario runner drives every protocol — the paper's and the three
baselines — through this surface: ``on_enter`` when the node arrives,
``on_message`` on delivery, ``depart_gracefully``/``vanish`` on
departure, and the metric attributes (``config_latency_hops``,
``configured_at``, ``attempts``, ``failed``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.context import NetworkContext
from repro.net.message import Message, MessageDispatch
from repro.net.node import Node
from repro.net.stats import Category
from repro.net.transport import Scope, SendOutcome
from repro.sim.timers import Timer


class BaseAutoconfAgent(MessageDispatch):
    """Common plumbing: sending, metrics, lifecycle."""

    protocol_name = "base"

    def __init__(self, ctx: NetworkContext, node: Node) -> None:
        self.ctx = ctx
        self.node = node
        node.agent = self
        ctx.register(self)

        self.ip: Optional[int] = None
        self.network_id: Optional[int] = None
        self.entered_at: Optional[float] = None
        self.configured_at: Optional[float] = None
        self.config_latency_hops: Optional[int] = None
        self.attempts = 0
        self.failed = False
        self.reconfigurations = 0
        self.on_configured_callback: Optional[Callable[[Any], None]] = None
        self._retry_timer = Timer(ctx.sim, self._on_retry_timeout)

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        return self.node.node_id

    def is_configured(self) -> bool:
        return self.ip is not None and self.node.alive

    def is_allocator(self) -> bool:
        """Can this node configure new entrants?"""
        return self.node.alive and self._can_allocate()

    def _can_allocate(self) -> bool:
        """:meth:`is_allocator` with liveness left out.  Default: if
        configured."""
        return self.ip is not None

    def _note_allocator(self) -> None:
        """Write :meth:`_can_allocate` through to the set
        ``NetworkContext.is_head`` answers from.  Message handlers are
        covered by :meth:`on_message`; any other code that changes what
        :meth:`_can_allocate` reads calls this itself."""
        self.ctx.note_allocator(self.node_id, self._can_allocate())

    # ------------------------------------------------------------------
    def _send(self, dst_id: int, mtype: str, payload: Dict[str, Any],
              category: Category) -> SendOutcome:
        dst = self.ctx.node_of(dst_id)
        if dst is None:
            return SendOutcome.failure()
        msg = Message(mtype=mtype, src=self.node_id, dst=dst_id,
                      payload=payload, network_id=self.network_id)
        return self.ctx.transport.send(self.node, dst, msg,
                                       category=category)

    def _flood(self, mtype: str, payload: Dict[str, Any], category: Category,
               max_hops: Optional[int] = None) -> SendOutcome:
        msg = Message(mtype=mtype, src=self.node_id, dst=None,
                      payload=payload, network_id=self.network_id)
        return self.ctx.transport.send(self.node, None, msg,
                                       category=category, scope=Scope.FLOOD,
                                       max_hops=max_hops)

    def _nearest_configured(self, max_hops: Optional[int] = None
                            ) -> Optional[Tuple[int, int]]:
        return self.ctx.hello.nearest_head(
            self.node_id, self.ctx.is_configured, max_hops)

    def _nearest_allocator(self, max_hops: Optional[int] = None
                           ) -> Optional[Tuple[int, int]]:
        return self.ctx.hello.nearest_head(
            self.node_id, self.ctx.is_head, max_hops,
            self.ctx.allocator_ids)

    def _allocators_within(self, k: int) -> List[Tuple[int, int]]:
        return self.ctx.hello.heads_within(
            self.node_id, k, self.ctx.is_head, self.ctx.allocator_ids)

    # ------------------------------------------------------------------
    def on_enter(self) -> None:
        raise NotImplementedError

    def on_message(self, msg: Message) -> None:
        if not self.node.alive:
            return
        handler = self._handlers.get(msg.mtype)
        if handler is not None:
            handler(self, msg)
            self._note_allocator()

    def _on_retry_timeout(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _mark_configured(self, ip: int, latency_hops: int) -> None:
        self._retry_timer.stop()
        self.ip = ip
        self._note_allocator()
        self.configured_at = self.ctx.sim.now
        self.config_latency_hops = latency_hops
        self.ctx.bind_ip(ip, self.node_id)
        if self.on_configured_callback is not None:
            self.on_configured_callback(self)

    def depart_gracefully(self) -> None:
        raise NotImplementedError

    def _finalize_leave(self) -> None:
        if not self.node.alive:
            return
        self._stop_timers()
        self._note_allocator()  # a departing allocator gave its pool away
        if self.ip is not None:
            self.ctx.unbind_ip(self.ip)
        self.node.kill()
        self.ctx.topology.remove_node(self.node)

    def vanish(self) -> None:
        """Abrupt departure: no protocol exchange."""
        self._stop_timers()
        if self.ip is not None:
            self.ctx.unbind_ip(self.ip)
        self.node.kill()
        self.ctx.topology.remove_node(self.node)

    def _stop_timers(self) -> None:
        self._retry_timer.stop()
