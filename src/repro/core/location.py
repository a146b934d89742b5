"""Location update for common nodes (Section IV-C-1).

In the *periodic update* scheme a common node that has moved more than
three hops from its configurer informs the nearest cluster head with
``UPDATE_LOC(configurer, IP)``; that head becomes its *administrator*,
and further moves beyond three hops of the administrator trigger new
updates.  The *upon-leave update* alternative skips all of this and only
announces the address at departure (Fig. 10 contrasts the two).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.roles import ADJACENT_HEAD_HOPS
from repro.core import messages as m
from repro.net.message import Message
from repro.net.stats import Category
from repro.sim.timers import PeriodicTimer

#: How often (seconds) a common node checks its distance to its
#: configurer or administrator.
LOCATION_CHECK_INTERVAL = 2.0


class LocationMixin:
    """Periodic location tracking for configured common nodes."""

    def _init_location_state(self) -> None:
        self._location_timer: Optional[PeriodicTimer] = None

    def _start_location_service(self) -> None:
        if self.cfg.location_update_mode != "periodic":
            return
        interval = LOCATION_CHECK_INTERVAL
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
            # The check changes nothing until the verdict may move
            # (NetworkContext.park_location).
            assert anchor is not None and self._location_timer is not None
            self.ctx.park_location(self.node_id, anchor,
                                   self._location_timer)
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
