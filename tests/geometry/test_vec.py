"""Unit and property tests for points, distance and lerp."""

import math

from hypothesis import given, strategies as st

from repro.geometry import Point, distance, lerp

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.builds(Point, coords, coords)


def test_distance_known_value():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0


def test_lerp_endpoints_and_midpoint():
    a, b = Point(0, 0), Point(10, 20)
    assert lerp(a, b, 0.0) == a
    assert lerp(a, b, 1.0) == b
    assert lerp(a, b, 0.5) == Point(5, 10)


@given(points, points)
def test_distance_symmetric(a, b):
    assert math.isclose(distance(a, b), distance(b, a), abs_tol=1e-9)


@given(points)
def test_distance_to_self_is_zero(a):
    assert distance(a, a) == 0.0


@given(points, points, points)
def test_triangle_inequality(a, b, c):
    assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


@given(points, points, st.floats(min_value=0.0, max_value=1.0))
def test_lerp_stays_on_segment(a, b, t):
    p = lerp(a, b, t)
    # |ap| + |pb| == |ab| within float tolerance
    assert math.isclose(
        distance(a, p) + distance(p, b), distance(a, b),
        rel_tol=1e-6, abs_tol=1e-6,
    )
