"""Points and vector helpers."""

from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class Point:
    """An immutable 2-D point, in meters."""

    x: float
    y: float


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(a.x - b.x, a.y - b.y)


def lerp(a: Point, b: Point, t: float) -> Point:
    """Linear interpolation: the point a + t * (b - a)."""
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)
