"""Perf counters through the stack: bounded BFS does less work and
results carry the counters."""

from repro.experiments.metrics import RunResult
from repro.experiments.runner import ScenarioRunner
from repro.experiments.scenario import Scenario
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.hello import HelloService
from repro.net.node import Node
from repro.net.topology import Topology
from repro.sim.engine import Simulator


def make_chain(length, spacing=100.0, tr=150.0):
    sim = Simulator()
    topo = Topology(sim, transmission_range=tr)
    for i in range(length):
        topo.add_node(Node(i, Stationary(Point(i * spacing, 0.0))))
    return sim, topo


def test_bounded_bfs_expands_fewer_nodes_than_full():
    _, topo = make_chain(60)
    topo.within_hops(0, 3)
    bounded = topo.perf.get("bfs_nodes_expanded")
    assert topo.perf.get("bfs_calls") == 1
    topo._bfs_cache.clear()
    topo.reachable(0)
    full = topo.perf.get("bfs_nodes_expanded") - bounded
    # 3-hop scan on a 60-node chain touches a handful of nodes; the
    # unbounded walk expands (nearly) the whole component.
    assert bounded <= 4
    assert full >= 58
    assert bounded < full


def test_hop_bounded_point_query_expands_less():
    _, topo = make_chain(50)
    assert topo.hops(0, 49) == 49
    expanded_full = topo.perf.get("bfs_nodes_expanded")
    topo._bfs_cache.clear()
    assert topo.hops(0, 10, max_hops=3) is None  # farther than the bound
    expanded_bounded = topo.perf.get("bfs_nodes_expanded") - expanded_full
    assert expanded_bounded < expanded_full


def test_nearest_head_with_bound_expands_fewer_nodes():
    _, topo = make_chain(40)
    hello = HelloService(topo)
    is_head = lambda nid: nid == 39  # the far end
    assert hello.nearest_head(0, is_head) == (39, 39)
    full = topo.perf.get("bfs_nodes_expanded")
    topo._bfs_cache.clear()
    assert hello.nearest_head(0, is_head, max_hops=2) is None
    bounded = topo.perf.get("bfs_nodes_expanded") - full
    assert bounded < full


def test_deeper_query_upgrades_cached_bfs():
    _, topo = make_chain(30)
    topo.within_hops(0, 2)
    assert topo.perf.get("bfs_calls") == 1
    topo.within_hops(0, 2)  # served from memo
    assert topo.perf.get("bfs_cache_hits") == 1
    assert topo.perf.get("bfs_calls") == 1
    topo.reachable(0)  # deeper: must re-run ...
    assert topo.perf.get("bfs_calls") == 2
    topo.within_hops(0, 3)  # ... and shallow queries now hit the memo
    assert topo.perf.get("bfs_cache_hits") == 2


def test_run_result_carries_perf_counters():
    scenario = Scenario(num_nodes=15, seed=1, settle_time=5.0)
    result = ScenarioRunner(scenario, "quorum").run()
    assert result.perf_counters  # populated
    assert result.perf_counters.get("bfs_calls", 0) > 0
    assert result.perf_counters.get("graph_rebuilds", 0) > 0
    # Counters must survive the sweep cache's JSON round-trip.
    restored = RunResult.from_dict(result.to_dict())
    assert restored.perf_counters == result.perf_counters
    assert restored == result


def test_quorum_run_floods_only_where_the_protocol_floods():
    # Routing and nearest-head scans stop at their answer, so the only
    # whole-component map builds left are the transport's own floods.
    scenario = Scenario(num_nodes=40, seed=7, depart_fraction=0.3,
                        abrupt_probability=0.3)
    counters = ScenarioRunner(scenario, "quorum").run().perf_counters
    assert counters["send_unicast"] > 0
    assert counters["send_flood"] > 0
    assert counters.get("bfs_unbounded", 0) <= counters["send_flood"]


def test_run_results_without_counters_omit_key():
    scenario = Scenario(num_nodes=15, seed=1, settle_time=5.0)
    result = ScenarioRunner(scenario, "quorum").run()
    stripped = RunResult.from_dict(
        {k: v for k, v in result.to_dict().items() if k != "perf_counters"})
    assert stripped.perf_counters == {}
    assert "perf_counters" not in stripped.to_dict()

