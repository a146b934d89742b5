"""Network partition and merge handling (Section V-C).

Every configured node carries its *network ID* on all messages and
periodically scans its two-hop neighborhood for foreign IDs.  When two
networks meet, "all the nodes in the network with the larger network ID
are required to acquire new IP addresses from the other network" — each
such node *rejoins*: it releases its state and re-runs configuration
against the surviving network, one node at a time.

An *isolated cluster head* — partitioned from every other cluster head —
"becomes the first cluster head in the network and regains all the
addresses" (its common members are told to reconfigure against it).

Network-ID representation: the paper uses the lowest IP in the network,
which is ambiguous once multiple networks reuse address 0.  We use
``address_space_size + founding head's node id`` instead: unique per
founded network, and ordered by founding time so the *older* network
always has the smaller ID and therefore wins merges — the same
minority-rejoins semantics, made well-defined (documented in DESIGN.md).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.addrspace.block import Block
from repro.cluster.roles import HEAD_SCOPE_HOPS, Role
from repro.core import messages as m
from repro.core.state import HeadState
from repro.net.message import Message
from repro.net.stats import Category
from repro.net.transport import Scope
from repro.obs import events as obs_ev
from repro.sim.timers import PeriodicTimer

ISOLATION_STRIKES = 4   # consecutive audits without a quorum majority
MERGE_GRACE = 10.0      # ignore foreign IDs right after founding a network


class PartitionMixin:
    """Merge detection, one-by-one rejoin, and isolated-head recovery."""

    def _init_partition_state(self) -> None:
        self._merge_timer: Optional[PeriodicTimer] = None
        self._isolated_strikes = 0
        self._rejoining = False
        self._merge_grace_until = 0.0
        self._ever_had_members = False
        self._orphan_strikes = 0
        self._rejoin_cooldown_until = 0.0
        # How many networks this node has founded (0 = none yet).  Each
        # founding event needs a globally unique network ID: re-founding
        # must never reuse the ID of the network this node founded
        # earlier, or the fresh address space would collide with the old
        # network's allocations.
        self._founding_epoch = 0

    def _new_network_id(self) -> int:
        """A unique, founding-order-friendly network identifier.

        ``space * (epoch + 1) + node_id``: unique per (node, founding
        event); all first-founding (epoch 0) networks order below all
        re-founded (epoch >= 1) networks, so re-founded minorities rejoin
        the original network whenever they meet it again.
        """
        self._founding_epoch += 1
        return (self.cfg.address_space_size * self._founding_epoch
                + self.node_id)

    def _found_network(self) -> None:
        """Head a fresh network that owns the whole address space: how
        the first head starts one and an isolated head re-founds one."""
        self.head = HeadState(Block(0, self.cfg.address_space_size),
                              self.node_id)
        self.network_id = self._new_network_id()

    def _start_merge_watch(self) -> None:
        if self._merge_timer is not None or not self.cfg.merge_detection_enabled:
            return
        timer = PeriodicTimer(
            self.ctx.sim, self.cfg.merge_check_interval, self._merge_scan)
        stagger = (self.node_id % 5) / 5.0 * self.cfg.merge_check_interval
        timer.start(first_delay=self.cfg.merge_check_interval + stagger)
        self._merge_timer = timer

    def _stop_merge_watch(self) -> None:
        if self._merge_timer is not None:
            self._merge_timer.stop()
            self._merge_timer = None

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def _merge_scan(self) -> None:
        if not self.is_configured() or self.network_id is None:
            return
        # One component-table lookup serves both checks below.
        _heads, head_networks, networks = self.ctx.component_entry(
            self.node_id)
        self._orphan_check(head_networks)
        if self._rejoining or not self.is_configured():
            return
        # O(1) pre-check on the shared component table: when every
        # configured node in the partition carries our network id, no
        # 3-hop scan can find a foreign one (a bounded neighborhood is
        # a subset of the component).  Partitions are homogeneous except
        # in the short window after two networks meet, so the scan
        # below runs only while there is actually something to merge.
        if len(networks) == 1 and self.network_id in networks:
            return
        for other_id, _hops in self.ctx.topology.within_hops(
                self.node_id, HEAD_SCOPE_HOPS):
            agent = self.ctx.agent_of(other_id)
            if agent is None or not self.ctx.is_configured(other_id):
                continue
            other_net = getattr(agent, "network_id", None)
            if other_net is not None and other_net != self.network_id:
                self._on_foreign_network_id(other_net, other_id)
                return

    def _orphan_check(self, networks: FrozenSet[Optional[int]]) -> None:
        """Orphan rescue: a common node that can reach heads, but none
        of its own network, has been left behind by a merge or refound.
        Its network ID would otherwise block it from ever rejoining
        (e.g. a dead network with a low ID and no allocators).  After
        two consecutive scans in that state, rejoin unconditionally."""
        if self.head is not None:
            self._orphan_strikes = 0
            return
        # Orphan rescue asks the whole partition whether any head of the
        # node's own network still exists.  ``networks`` is the answer
        # off the shared per-component head table (the networks that
        # still have a head here); every node walking its own component
        # per scan made the scan round O(n^2).
        any_head = bool(networks)
        if self.network_id in networks:
            self._orphan_strikes = 0
            return
        self._orphan_strikes += 1
        # Foreign heads in reach: rejoin quickly.  No heads at all: give
        # the cluster a little longer to re-form, then rejoin anyway —
        # a configured node without any allocator would otherwise sit on
        # its stale address and (via INIT_DEFER) block every unconfigured
        # neighbor from founding a fresh network.
        threshold = 2 if any_head else 4
        if self._orphan_strikes >= threshold:
            self._orphan_strikes = 0
            self._start_rejoin(forced=True)

    def _on_foreign_network_id(self, other_net: int, other_id: int) -> None:
        if self.network_id is None or other_net == self.network_id:
            return
        if self.ctx.sim.now < self._merge_grace_until:
            return
        if self.network_id > other_net:
            self._start_rejoin()

    # ------------------------------------------------------------------
    # Rejoin (the larger-ID network reconfigures, node by node)
    # ------------------------------------------------------------------
    def _start_rejoin(self, forced: bool = False) -> None:
        if self._rejoining or not self.node.alive:
            return
        if not forced and self.ctx.sim.now < self._rejoin_cooldown_until:
            return
        self._rejoining = True
        self.reconfigurations += 1
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.PartitionEvent(
                time=self.ctx.sim.now, node=self.node_id, corr=0,
                phase="rejoin", network_id=self.network_id))
        was_head = self.head is not None
        if self.head is not None:
            # Propagate to our cluster and leave the quorum system.
            for address, holder in sorted(self.head.configured.items()):
                if holder is None or holder < 0:
                    continue
                self._send(holder, m.MERGE_JOIN, {}, Category.PARTITION)
            for member in self.head.qdset.members():
                self._send(member, m.RESIGN, {"ip": self.head.ip},
                           Category.PARTITION)
        # Hand our address resources back to the network we are leaving
        # — without this, every rejoin leaks a block and sustained churn
        # eventually exhausts the whole address space.
        self._return_resources_for_rejoin()
        if self.ip is not None:
            self.ctx.unbind_ip(self.ip)
        self._stop_all_timers()
        self._pending.clear()
        self._pending_addresses.clear()
        self._borrow_reservations.clear()
        self.role = Role.REQUESTING
        self.head = None
        self.common = None
        self.network_id = None
        self.configured_at = None
        self.config_latency_hops = None
        self.attempts = 0
        # Stagger re-entry so a merging network does not stampede.
        # Former heads re-enter first: they become allocators the
        # common nodes behind them will need.
        if was_head:
            delay = 0.1 + (self.node_id % 20) * 0.05
        else:
            delay = 1.5 + (self.node_id % 40) * 0.1
        self.ctx.sim.schedule(delay, self._begin_attempt)

    def _return_resources_for_rejoin(self) -> None:
        """Return our address (or IP block) to a head of the network we
        are abandoning, exactly as a graceful departure would."""
        if self.head is not None:
            target = self._return_target()
            if target is not None and self._same_network_head(target):
                self._send_with_retry(target, m.CH_RETURN,
                                      self._hand_off_to(target),
                                      Category.PARTITION)
        elif self.common is not None:
            nearest = self.ctx.hello.nearest_head(
                self.node_id,
                lambda nid: self.ctx.is_head(nid) and self._same_network_head(nid),
                among=self.ctx.allocator_ids,
            )
            if nearest is not None:
                self._send(nearest[0], m.RETURN_ADDR, {
                    "ip": self.common.ip,
                    "configurer_ip": self.common.configurer_ip,
                    "mode": self.cfg.location_update_mode,
                }, Category.PARTITION)

    def _handle_merge_join(self, msg: Message) -> None:
        if self.node.alive and self.is_configured():
            self._start_rejoin(forced=True)

    # ------------------------------------------------------------------
    # Isolated / minority cluster heads (called from the audit)
    # ------------------------------------------------------------------
    def _check_isolated(self, any_member_reachable: bool) -> None:
        """Detect loss of the quorum majority and recover.

        A head that cannot reach a majority of its quorum universe for
        several consecutive audits is either isolated (Section V-C's
        isolated cluster head) or on the minority side of a partition.
        It cannot configure, shrink, or reclaim — so the minority
        component *re-founds*: the lowest-id head among the reachable
        heads starts a fresh network and commands the component to
        rejoin it.  The re-founded network's ID is larger than the
        original's, so it rejoins the majority if they ever meet again.
        """
        if self.head is None or not self.cfg.merge_detection_enabled:
            return
        if len(self.head.qdset) > 0 or any_member_reachable:
            self._ever_had_members = True
        if not self._ever_had_members:
            return  # genuinely the only head there has ever been
        if self._majority_reachable():
            self._isolated_strikes = 0
            return
        self._isolated_strikes += 1
        if self._isolated_strikes < ISOLATION_STRIKES:
            return
        self._isolated_strikes = 0
        # Re-founding elects the lowest-id head of the whole component —
        # read off the shared per-component head table (built from the
        # connectivity labels; no BFS flood, no per-asker walk).
        reachable_heads = [
            other for other in self.ctx.component_heads(self.node_id)
            if other != self.node_id
        ]
        if not reachable_heads:
            self._become_isolated_network(flood_component=False)
        elif self.node_id < reachable_heads[0]:
            self._become_isolated_network(flood_component=True)
        # else: a lower-id head in this component will re-found; wait.

    def _become_isolated_network(self, flood_component: bool = False) -> None:
        """Found a fresh network: whole address space, new network ID."""
        assert self.head is not None
        self._isolated_strikes = 0
        self._ever_had_members = False
        old_members = dict(self.head.configured)
        if self.ip is not None:
            self.ctx.unbind_ip(self.ip)
        self._found_network()
        self.ctx.bind_ip(self.head.ip, self.node_id)
        obs = self.ctx.obs
        if obs:
            obs.emit(obs_ev.PartitionEvent(
                time=self.ctx.sim.now, node=self.node_id, corr=0,
                phase="refound", network_id=self.network_id))
        self._merge_grace_until = self.ctx.sim.now + MERGE_GRACE
        self._reclaimed.clear()
        if flood_component:
            # Re-founding a minority component: every reachable node
            # (heads included) must reconfigure against the new network.
            msg = Message(mtype=m.MERGE_JOIN, src=self.node_id, dst=None,
                          payload={}, network_id=self.network_id)
            self.ctx.transport.send(self.node, None, msg,
                                    category=Category.PARTITION,
                                    scope=Scope.FLOOD)
        else:
            # Isolated head: only our own configured members are around.
            for _address, holder in sorted(old_members.items()):
                if holder is None or holder < 0:
                    continue
                self._send(holder, m.MERGE_JOIN, {}, Category.PARTITION)
