"""The one base class of every autoconfiguration agent.

The scenario runner drives all seven protocols — the paper's quorum
agent and the six baselines — through this surface: ``on_enter`` when
the node arrives, ``on_message`` on delivery, ``depart_gracefully`` /
``vanish`` on departure, and the metric attributes (``entered_at``,
``configured_at``, ``config_latency_hops``, ``attempts``, ``failed``,
``reconfigurations``).  The harness and the context read ``ip``,
``network_id`` and ``is_allocator()`` of any agent the same way.

**Dispatch.**  A method named ``_handle_<mtype.lower()>`` handles
messages of type ``<MTYPE>`` (an alias such as
``_handle_ch_nack = _handle_com_nack`` included).  The functions are
gathered into ``_handlers`` once, when the class is created, and
:meth:`Agent.on_message` probes that dict.  A class that sets
``message_types`` must handle exactly those types, or creating it (or
a subclass) raises :class:`TypeError`.

**Allocator write-through.**  ``NetworkContext.is_head`` answers from
the set :meth:`Agent._note_allocator` writes, so whatever changes what
:meth:`Agent._can_allocate` reads must be noted.
:meth:`Agent.on_message` notes after every handler; an agent that
writes through from its own setters overrides it without the note.
"""

from __future__ import annotations

from typing import (Any, Callable, ClassVar, Collection, Dict, List,
                    Optional, Tuple)

from repro.net.context import NetworkContext
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category
from repro.net.transport import Scope, SendOutcome
from repro.sim.timers import Timer


class Agent:
    """One node's protocol agent: registration, metrics, sending,
    dispatch and teardown."""

    #: The protocol's name in ``repro.experiments.runner.PROTOCOLS``.
    protocol_name: ClassVar[str]
    message_types: ClassVar[Optional[Collection[str]]] = None
    _handlers: ClassVar[Dict[str, Callable[[Any, Message], None]]] = {}

    #: The node's address and the partition id its messages carry
    #: (Section V-C), ``None`` until configured.  An agent may derive
    #: either from its own state instead; registration reads ``ip``.
    ip: Optional[int] = None
    network_id: Optional[int] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._handlers = {
            name[len("_handle_"):].upper(): getattr(cls, name)
            for name in dir(cls)
            if name.startswith("_handle_") and callable(getattr(cls, name))}
        if cls.message_types is None:
            return
        handled, listed = set(cls._handlers), set(cls.message_types)
        if handled != listed:
            raise TypeError(
                f"{cls.__name__}: handlers for unlisted types: "
                f"{sorted(handled - listed)}; types without a handler: "
                f"{sorted(listed - handled)}")

    def __init__(self, ctx: NetworkContext, node: Node) -> None:
        self.ctx = ctx
        self.node = node
        node.agent = self
        ctx.register(self)

        self.entered_at: Optional[float] = None
        self.configured_at: Optional[float] = None
        self.config_latency_hops: Optional[int] = None
        self.attempts = 0
        self.failed = False
        self.reconfigurations = 0
        # Lifecycle hook (set by the runner).
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
        ``NetworkContext.is_head`` answers from."""
        self.ctx.note_allocator(self.node_id, self._can_allocate())

    def death_snapshot(self) -> Dict[str, Any]:
        """What an abrupt death takes with it (Fig. 13), as
        ``DeathRecord`` fields beyond the node id and the time."""
        return {"was_head": self.is_allocator()}

    # ------------------------------------------------------------------
    def _send(self, dst_id: int, mtype: str, payload: Dict[str, Any],
              category: Category, corr: int = 0) -> SendOutcome:
        dst = self.ctx.node_of(dst_id)
        if dst is None:
            return SendOutcome.failure()
        msg = Message(mtype=mtype, src=self.node_id, dst=dst_id,
                      payload=payload, network_id=self.network_id,
                      corr=corr)
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
        ctx = self.ctx
        return ctx.hello.nearest_head(
            self.node_id, ctx.is_head, max_hops, ctx.allocator_ids)

    def _allocators_within(self, k: int) -> List[Tuple[int, int]]:
        ctx = self.ctx
        return ctx.hello.heads_within(
            self.node_id, k, ctx.is_head, ctx.allocator_ids)

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

    def _mark_configured(self, ip: int, latency_hops: int) -> None:
        self._retry_timer.stop()
        self.ip = ip
        self._note_allocator()
        self.configured_at = self.ctx.sim.now
        self.config_latency_hops = latency_hops
        self.ctx.bind_ip(ip, self.node_id)
        if self.on_configured_callback is not None:
            self.on_configured_callback(self)

    # ------------------------------------------------------------------
    def depart_gracefully(self) -> None:
        raise NotImplementedError

    def vanish(self) -> None:
        """Abrupt departure: power off without any protocol exchange."""
        self._power_off()

    def _finalize_leave(self) -> None:
        """End a graceful departure, once: note the pool a departing
        allocator gave away, then power off."""
        if self.node.alive:
            self._note_allocator()
            self._power_off()

    def _power_off(self) -> None:
        self._stop_timers()
        if self.ip is not None:
            self.ctx.unbind_ip(self.ip)
        self.node.kill()
        self.ctx.topology.remove_node(self.node)

    def _stop_timers(self) -> None:
        self._retry_timer.stop()
