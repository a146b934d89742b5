"""Network partition and merge handling (Section V-C)."""

from repro.cluster.roles import Role
from repro.core import ProtocolConfig
from repro.geometry import Point
from repro.mobility.base import Stationary

from tests.helpers import (
    assert_unique_addresses,
    line_agents,
    make_ctx,
    passes_over,
    positions_cluster,
)


def partition_cfg(**overrides):
    overrides.setdefault("merge_check_interval", 1.0)
    overrides.setdefault("audit_interval", 1.0)
    overrides.setdefault("td", 2.0)
    overrides.setdefault("tr", 1.0)
    return ProtocolConfig(**overrides)


def test_network_ids_are_unique_per_founding():
    ctx = make_ctx()
    cfg = partition_cfg()
    a = positions_cluster(ctx, [(100, 100)], cfg=cfg)[0]
    b = positions_cluster_offset(ctx, (900, 900), 1, cfg)
    ctx.sim.run(until=30.0)
    assert a.network_id is not None and b.network_id is not None
    assert a.network_id != b.network_id


def positions_cluster_offset(ctx, origin, node_id, cfg):
    from tests.helpers import add_node
    agent = add_node(ctx, 100 + node_id, origin[0], origin[1], cfg=cfg)
    ctx.sim.schedule(0.2, agent.on_enter)
    return agent


def test_merge_two_networks_one_survives():
    """Two separately founded networks brought into contact merge: the
    younger (larger-ID) network's nodes reconfigure into the older."""
    ctx = make_ctx()
    cfg = partition_cfg()
    # Network A: chain on the left.
    left = positions_cluster(
        ctx, [(100 + 120 * i, 200) for i in range(3)], cfg=cfg)
    # Network B: chain far away on the right (founded later).
    from tests.helpers import add_node
    right = []
    for i in range(3):
        agent = add_node(ctx, 50 + i, 100 + 120 * i, 900, cfg=cfg)
        ctx.sim.schedule(20.0 + 5.0 * i, agent.on_enter)
        right.append(agent)
    ctx.sim.run(until=60.0)
    nets = {a.network_id for a in left} | {a.network_id for a in right}
    assert len(nets) == 2
    older = min(nets)
    # Bring B's nodes next to A (a merge).
    for i, agent in enumerate(right):
        agent.node.mobility = Stationary(Point(100 + 120 * i, 320))
    ctx.topology.invalidate()
    ctx.sim.run(until=200.0)
    everyone = left + right
    configured = [a for a in everyone if a.is_configured()]
    assert len(configured) == len(everyone)
    assert {a.network_id for a in configured} == {older}
    assert_unique_addresses(everyone)


def test_merge_join_command_triggers_rejoin():
    ctx = make_ctx()
    cfg = partition_cfg()
    agents = line_agents(ctx, 4, cfg=cfg)
    ctx.sim.run(until=60.0)
    common = agents[1]
    before = common.reconfigurations
    from repro.core import messages as m
    from repro.net.message import Message
    common.on_message(Message(m.MERGE_JOIN, src=0, dst=common.node_id))
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert common.reconfigurations == before + 1
    assert common.is_configured()


def test_isolated_head_refounds_network():
    """A head partitioned from every other head regains a whole fresh
    address space under a new network ID (Section V-C)."""
    ctx = make_ctx()
    cfg = partition_cfg()
    agents = line_agents(ctx, 7, cfg=cfg)  # heads at 0, 3, 6
    ctx.sim.run(until=110.0)
    edge = next(a for a in agents if a.role is Role.HEAD
                and a.node_id == 6)
    old_net = edge.network_id
    old_space = edge.head.pool.total_count()
    # Move the edge head and its member far away, alone.
    for agent in agents:
        if agent.node_id in (5, 6):
            offset = (agent.node_id - 5) * 100.0
            agent.node.mobility = Stationary(Point(3000 + offset, 3000))
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 60.0)
    assert edge.network_id != old_net
    assert edge.head.pool.total_count() == cfg.address_space_size
    assert edge.head.pool.total_count() > old_space
    # Its stranded member reconfigured against the fresh network.
    member = next(a for a in agents if a.node_id == 5)
    if member.is_configured():
        assert member.network_id == edge.network_id


def test_refounded_networks_keep_both_bindings_of_one_address():
    """After a re-found two networks hold address 0: each keeps its own
    binding, and unbinding one leaves the other."""
    ctx = make_ctx()
    agents = line_agents(ctx, 4, cfg=partition_cfg())  # heads at 0 and 3
    ctx.sim.run(until=60.0)
    first, edge = agents[0], agents[3]
    assert first.ip == 0 and edge.role is Role.HEAD and edge.ip != 0
    old_net = first.network_id
    edge._become_isolated_network()
    assert edge.ip == 0 and edge.network_id != old_net
    assert ctx.resolve_ip(old_net, 0) == first.node_id
    assert ctx.resolve_ip(edge.network_id, 0) == edge.node_id
    new_net = edge.network_id
    edge.vanish()
    assert ctx.resolve_ip(new_net, 0) is None
    assert ctx.resolve_ip(old_net, 0) == first.node_id


def test_partitioned_networks_never_share_addresses():
    """Even while partitioned, (network, address) pairs stay unique."""
    ctx = make_ctx()
    cfg = partition_cfg()
    agents = line_agents(ctx, 10, cfg=cfg)
    ctx.sim.run(until=160.0)
    # Split the chain in half by pulling nodes 5-9 away.
    for agent in agents[5:]:
        index = agent.node_id - 5
        agent.node.mobility = Stationary(Point(2000 + 120 * index, 2000))
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 80.0)
    assert_unique_addresses(agents)


def test_orphan_rescue_rejoins_available_network():
    """A configured common node stranded among foreign heads rejoins
    rather than staying wedged on its dead network's ID."""
    ctx = make_ctx()
    cfg = partition_cfg()
    left = positions_cluster(
        ctx, [(100 + 120 * i, 200) for i in range(4)], cfg=cfg)
    ctx.sim.run(until=80.0)
    # A second network forms far away.
    from tests.helpers import add_node
    right = []
    for i in range(3):
        agent = add_node(ctx, 60 + i, 100 + 120 * i, 900, cfg=cfg)
        ctx.sim.schedule(ctx.sim.now + 1.0 + 5.0 * i, agent.on_enter)
        right.append(agent)
    ctx.sim.run(until=ctx.sim.now + 40.0)
    orphan = left[1]
    assert orphan.role is Role.COMMON
    # Teleport the orphan alone into the second network's area.
    orphan.node.mobility = Stationary(Point(220, 960))
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 60.0)
    assert orphan.is_configured()
    assert orphan.network_id == right[0].network_id


def test_merge_scan_skips_only_while_its_stamp_holds():
    ctx = make_ctx()
    cfg = partition_cfg()
    agents = line_agents(ctx, 4, cfg=cfg)
    far = positions_cluster_offset(ctx, (900, 900), 1, cfg)
    ctx.sim.run(until=60.0)
    scanner, other = agents[0], agents[-1]
    timer = scanner._merge_timer
    assert scanner.network_id == other.network_id is not None
    assert far.network_id not in (None, scanner.network_id)
    # A lookup refreshes the graph; the next scan finds its partition
    # homogeneous and parks its timer on its own node's entry, which
    # holds while nothing in its component moves.
    ctx.component_entry(scanner.node_id)
    scanner._merge_scan()
    assert passes_over(timer)
    # The other component's network set moves: not this scan's entry.
    far.network_id = far.network_id + 1
    assert passes_over(timer)
    # Another node of its own component takes a foreign network id: no
    # graph change, but the entry's network set moved, so the scan
    # must run in full.
    other.network_id = other.network_id + 1
    assert not passes_over(timer)
    other.network_id = scanner.network_id
    ctx.component_entry(scanner.node_id)
    scanner._merge_scan()
    assert passes_over(timer)
    # The scan read the node's own network id and head-ness too, and
    # its entry carries both: a write that cannot move the verdict
    # leaves the park (head 3 still heads the network), one that can
    # moves the entry's sets and wakes it.
    scanner.network_id = scanner.network_id
    head, scanner.head = scanner.head, None
    assert passes_over(timer)
    scanner.head = head
    assert passes_over(timer)
    scanner.network_id = scanner.network_id + 1
    assert not passes_over(timer)
    scanner.network_id = other.network_id
    scanner._merge_scan()
    assert passes_over(timer)
    # A stale graph never skips: the scan's lookup refreshes it.
    ctx.topology.invalidate_nodes([other.node_id])
    assert not passes_over(timer)
