"""Location update for common nodes (Section IV-C-1).

In the *periodic update* scheme a common node that has moved more than
three hops from its configurer informs the nearest cluster head with
``UPDATE_LOC(configurer, IP)``; that head becomes its *administrator*,
and further moves beyond three hops of the administrator trigger new
updates.  The *upon-leave update* alternative skips all of this and only
announces the address at departure (Fig. 10 contrasts the two).
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

from repro.cluster.roles import ADJACENT_HEAD_HOPS
from repro.core import messages as m
from repro.net.message import Message
from repro.net.stats import Category
from repro.net.topology import STALE
from repro.sim.timers import PeriodicTimer


class LocationMixin:
    """Periodic location tracking for configured common nodes."""

    def _init_location_state(self) -> None:
        self._location_timer: Optional[PeriodicTimer] = None
        # The edge-removal stamp the last "anchor near" verdict read.
        self._location_removals: Hashable = STALE

    def _start_location_service(self) -> None:
        if self.cfg.location_update_mode != "periodic":
            return
        interval = self.cfg.location_check_interval
        self._location_timer = self._every(self._location_timer, interval,
                                           self._check_location,
                                           self._stagger(interval, 10))

    # ------------------------------------------------------------------
    def _location_anchor(self) -> Optional[int]:
        if self.common is None:
            return None
        if self.common.administrator_id is not None:
            return self.common.administrator_id
        return self.common.configurer_id

    def _location_stamp(self) -> Tuple[Hashable, Optional[int], bool]:
        """What an "anchor within three hops" verdict rests on, read
        without a graph query: ``(edge-removal stamp of this node's
        component, anchor, anchor is a head)``.  Nodes and edges that
        only arrive never lengthen a shortest path, and a removal in
        another component is on no path from here, so the verdict
        holds while this reads the same; a graph due a refresh reads
        ``STALE`` and matches no stamp taken on a current one."""
        ctx = self.ctx
        anchor = self._location_anchor()
        head = anchor is not None and ctx.is_head(anchor)
        return ctx.topology.removal_stamp(self.node_id), anchor, head

    def _check_location(self) -> None:
        if self.common is None or not self.node.alive:
            return
        anchor = self._location_anchor()
        anchor_near = False
        if anchor is not None and self.ctx.is_head(anchor):
            hops = self.ctx.topology.hops(self.node_id, anchor,
                                          max_hops=ADJACENT_HEAD_HOPS)
            anchor_near = hops is not None
        if anchor_near:
            # The check changes nothing until the stamp moves.  Under
            # mobility every refresh removes edges, so park only when no
            # edge was removed since the last near verdict: a park the
            # next round would end at once costs more than it saves.
            removals = self.ctx.topology.removal_stamp(self.node_id)
            if removals == self._location_removals != STALE:
                assert self._location_timer is not None   # it called us
                self._location_timer.park(self._location_stamp)
            self._location_removals = removals
            return
        nearest = self._nearest_allocator()
        if nearest is None or nearest[0] == anchor:
            return
        self._send(nearest[0], m.UPDATE_LOC, {
            "ip": self.common.ip,
            "configurer_ip": self.common.configurer_ip,
        }, Category.MOVEMENT)
        self.common.administrator_id = nearest[0]

    def _handle_update_loc(self, msg: Message) -> None:
        """The administrator keeps no record of the member: its
        departure's ``RETURN_ADDR`` carries the configurer's IP, which
        is all the return needs (Section IV-C-1)."""
