"""Mobility model interface and the trivial stationary model."""

from __future__ import annotations

import abc
from typing import Tuple

from repro.geometry import Point


class MobilityModel(abc.ABC):
    """Maps simulation time to a node position."""

    @abc.abstractmethod
    def position(self, t: float) -> Point:
        """The node's position at absolute simulation time ``t``."""

    def xy(self, t: float) -> Tuple[float, float]:
        """``position(t)`` as a bare ``(x, y)`` pair, bit for bit: the
        read the topology's position refresh makes per node, which a
        model may serve without building a :class:`Point`."""
        point = self.position(t)
        return point.x, point.y

    def speed(self) -> float:
        """Nominal speed in m/s (0 for stationary models)."""
        return 0.0


class Stationary(MobilityModel):
    """A node that never moves."""

    def __init__(self, point: Point) -> None:
        self._point = point

    def position(self, t: float) -> Point:
        return self._point

    def __repr__(self) -> str:
        return f"Stationary({self._point})"
