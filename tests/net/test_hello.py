"""Unit tests for hello-derived neighborhood knowledge."""

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net import HelloService, Node, Topology
from repro.sim import Simulator


def make(positions, tr=150.0):
    topo = Topology(Simulator(seed=1), transmission_range=tr)
    for i, (x, y) in enumerate(positions):
        topo.add_node(Node(i, Stationary(Point(x, y))))
    return HelloService(topo)


def test_heads_within_filters_and_sorts():
    hello = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    heads = {1, 3}
    result = hello.heads_within(0, 3, lambda n: n in heads)
    assert result == [(1, 1), (3, 3)]


def test_heads_within_respects_k():
    hello = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    result = hello.heads_within(0, 2, lambda n: True)
    assert result == [(1, 1), (2, 2)]


def test_nearest_head_unbounded():
    hello = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    assert hello.nearest_head(0, lambda n: n == 3) == (3, 3)


def test_nearest_head_bounded():
    hello = make([(0, 0), (120, 0), (240, 0), (360, 0)])
    assert hello.nearest_head(0, lambda n: n == 3, max_hops=2) is None


def test_nearest_head_tie_breaks_by_id():
    hello = make([(120, 0), (0, 0), (240, 0)])
    assert hello.nearest_head(0, lambda n: True) == (1, 1)


def test_nearest_head_none_when_no_heads():
    hello = make([(0, 0), (120, 0)])
    assert hello.nearest_head(0, lambda n: False) is None

