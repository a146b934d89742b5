"""Unit and property tests for random-waypoint mobility."""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.geometry import Point, Region, distance
from repro.mobility import RandomWaypoint, Stationary


def make_model(speed=20.0, start_time=0.0, seed=1):
    return RandomWaypoint(
        Region(1000, 1000), Point(500, 500), speed,
        random.Random(seed), start_time=start_time,
    )


def test_position_before_start_is_origin():
    model = make_model(start_time=10.0)
    assert model.position(0.0) == Point(500, 500)
    assert model.position(10.0) == Point(500, 500)


def test_zero_speed_never_moves():
    model = make_model(speed=0.0)
    assert model.position(100.0) == Point(500, 500)


def test_speed_accessor():
    assert make_model(speed=20.0).speed() == 20.0
    assert Stationary(Point(0, 0)).speed() == 0.0


def test_positions_stay_in_region():
    model = make_model()
    region = Region(1000, 1000)
    for t in range(0, 500, 7):
        assert region.contains(model.position(float(t)))


def test_movement_respects_speed_limit():
    model = make_model(speed=20.0)
    prev = model.position(0.0)
    for step in range(1, 200):
        t = step * 0.5
        cur = model.position(t)
        assert distance(prev, cur) <= 20.0 * 0.5 + 1e-6
        prev = cur


def test_trajectory_is_deterministic():
    a = make_model(seed=5)
    b = make_model(seed=5)
    for t in (1.0, 10.0, 100.0):
        assert a.position(t) == b.position(t)


def test_non_monotone_queries_consistent():
    model = make_model()
    late = model.position(50.0)
    early = model.position(10.0)
    assert model.position(50.0) == late
    assert model.position(10.0) == early


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.5, max_value=50.0),
    st.floats(min_value=0.0, max_value=300.0),
)
def test_position_always_in_region(seed, speed, t):
    model = RandomWaypoint(
        Region(1000, 1000), Point(100, 900), speed,
        random.Random(seed),
    )
    p = model.position(t)
    assert 0 <= p.x <= 1000 and 0 <= p.y <= 1000


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1.0, max_value=40.0),
)
def test_displacement_bounded_by_speed(seed, speed):
    model = RandomWaypoint(
        Region(1000, 1000), Point(500, 500), speed, random.Random(seed))
    p1 = model.position(10.0)
    p2 = model.position(14.0)
    assert distance(p1, p2) <= speed * 4.0 + 1e-6


# ---------------------------------------------------------------------------
# xy(t): position(t)'s coordinates, bit for bit, without a Point
# ---------------------------------------------------------------------------
def bits(pair):
    """Each coordinate's type and exact bits (``-0.0`` is not ``0.0``)."""
    return tuple((type(value), float(value).hex()) for value in pair)


def leg_times(model, t_max):
    """Every leg end and start up to ``t_max``, with the floats just
    inside and outside each, and each leg's midpoint."""
    model.position(t_max)
    times = []
    for t0, t1, _a, _b in model._legs:
        times += [t0, math.nextafter(t0, math.inf), math.nextafter(t0, -math.inf)]
        if t1 != math.inf:
            times += [t1, math.nextafter(t1, -math.inf), (t0 + t1) / 2]
    return times


def assert_xy_is_position(times, **kwargs):
    """``xy`` on one model and ``position`` on its twin (same seed),
    queried in the same order, agree bit for bit."""
    reader, twin = make_model(**kwargs), make_model(**kwargs)
    for t in times:
        point = twin.position(t)
        assert bits(reader.xy(t)) == bits((point.x, point.y)), t


def test_xy_is_position_at_leg_boundaries():
    model = make_model(start_time=3.0)
    times = leg_times(model, 400.0)
    # In order (legs generated one by one, a leg's end asked before the
    # next leg exists), then shuffled (the cached leg is rarely the one
    # asked about).
    assert_xy_is_position(sorted(times), start_time=3.0)
    random.Random(5).shuffle(times)
    assert_xy_is_position(times, start_time=3.0)
    # Each leg's end right after its middle, with the next leg already
    # there: ``position`` answers from the next leg's start, which the
    # interpolation at fraction 1.0 misses by an ulp on about a third
    # of the legs.
    ends = [400.0]
    for t0, t1, _a, _b in model._legs[:-1]:
        ends += [(t0 + t1) / 2, t1]
    assert_xy_is_position(ends, start_time=3.0)


def test_xy_is_position_at_and_before_start():
    times = [0.0, 9.0, 10.0, math.nextafter(10.0, math.inf), 12.5, 10.0, 2.0]
    assert_xy_is_position(times, start_time=10.0)
    assert_xy_is_position(times, start_time=10.0, speed=0.0)


class PinnedRegion(Region):
    """Every waypoint is the start: each leg is degenerate."""

    def random_point(self, rng):
        return Point(500, 500)


def test_xy_is_position_on_a_degenerate_leg():
    model = RandomWaypoint(PinnedRegion(1000, 1000), Point(500, 500), 20.0,
                           random.Random(1))
    for t in (0.0, 1.0, 50.0, 1e9):
        point = model.position(t)
        assert bits(model.xy(t)) == bits((point.x, point.y))
    assert model._legs[0][1] == math.inf


def test_stationary_xy_is_its_point():
    point = Point(0.1 + 0.2, -0.0)
    assert bits(Stationary(point).xy(7.0)) == bits((point.x, point.y))


def test_store_reads_xy_across_model_swaps():
    """A node starts stationary, starts walking when it configures (the
    runner's ``_start_movement``), and is pinned (``Node.pin``): after
    each refresh the store holds ``position(t)``, bit for bit, of a twin
    node put through the same swaps."""
    from repro.net.node import Node
    from repro.net.store import NodeStore

    store = NodeStore()
    node = Node(1, Stationary(Point(500, 500)))
    twin = Node(1, Stationary(Point(500, 500)))
    slot = store.add(node)

    def check(t):
        store.refresh_positions(t)
        point = twin.position(t)
        assert bits((store.xs[slot], store.ys[slot])) == bits(
            (float(point.x), float(point.y))), t

    for t in (0.0, 1.0):
        check(t)
    for each in (node, twin):
        each.mobility = make_model(start_time=1.0)
    legs = leg_times(make_model(start_time=1.0), 200.0)
    for t in sorted(legs) + [250.0]:
        check(t)
    for each in (node, twin):
        each.pin(250.0)
    for t in (250.0, 300.0):
        check(t)
