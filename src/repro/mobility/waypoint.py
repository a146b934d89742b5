"""Random-waypoint mobility with analytic position lookup.

Legs are generated lazily: when ``position(t)`` is asked for a time past
the end of the last generated leg, new legs are appended.  Each leg is a
straight line from the previous waypoint to a fresh uniformly random
destination, traversed at constant speed (no pause time — the paper's
nodes move continuously at 20 m/s).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.geometry import Point, Region, distance, lerp
from repro.mobility.base import MobilityModel


class RandomWaypoint(MobilityModel):
    """The random-waypoint model of the paper's Section VI-A.

    Args:
        region: the simulation area.
        start: initial position (where the node arrived).
        speed_mps: constant movement speed; the node starts moving at
            ``start_time`` (its configuration time, per the paper).
        rng: random stream for destination choice.
        start_time: absolute time at which movement begins.
    """

    def __init__(
        self,
        region: Region,
        start: Point,
        speed_mps: float,
        rng: random.Random,
        start_time: float = 0.0,
    ) -> None:
        if speed_mps < 0:
            raise ValueError("speed must be non-negative")
        self.region = region
        self.speed_mps = speed_mps
        self.start_time = start_time
        self._rng = rng
        # Legs: (t_begin, t_end, from_point, to_point); contiguous in time.
        self._legs: List[Tuple[float, float, Point, Point]] = []
        self._frontier_time = start_time
        self._frontier_point = start
        # The finite leg the last position() landed in: xy() reads it
        # while its time stays strictly inside the leg.
        self._current: Tuple[float, float, Point, Point] = (
            float("inf"), float("inf"), start, start)

    def speed(self) -> float:
        return self.speed_mps

    def _extend_to(self, t: float) -> None:
        while self._frontier_time < t:
            origin = self._frontier_point
            dest = self.region.random_point(self._rng)
            leg_len = distance(origin, dest)
            if leg_len == 0 or self.speed_mps == 0:
                # Degenerate leg: hold position "forever".
                self._legs.append((self._frontier_time, float("inf"), origin, origin))
                self._frontier_time = float("inf")
                return
            duration = leg_len / self.speed_mps
            self._legs.append(
                (self._frontier_time, self._frontier_time + duration, origin, dest)
            )
            self._frontier_time += duration
            self._frontier_point = dest

    def position(self, t: float) -> Point:
        if t <= self.start_time or self.speed_mps == 0:
            return self._legs[0][2] if self._legs else self._frontier_point
        self._extend_to(t)
        # Legs are few and time-ordered; scan from the back (queries are
        # overwhelmingly monotone in t).
        for leg in reversed(self._legs):
            t0, t1, a, b = leg
            if t0 <= t <= t1:
                if t1 == float("inf"):
                    return a
                self._current = leg
                return lerp(a, b, (t - t0) / (t1 - t0))
        # t precedes all legs (possible after start_time epsilon issues).
        return self._legs[0][2]

    def xy(self, t: float) -> Tuple[float, float]:
        # ``lerp``'s arithmetic on the cached leg, without the Point.
        # Only strictly inside it: at an end ``position`` may answer
        # from the neighbouring leg, and at ``start_time`` it answers
        # the start point itself.
        t0, t1, a, b = self._current
        if t0 < t < t1:
            f = (t - t0) / (t1 - t0)
            return a.x + (b.x - a.x) * f, a.y + (b.y - a.y) * f
        point = self.position(t)
        return point.x, point.y
