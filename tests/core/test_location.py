"""Location update for mobile common nodes (Section IV-C-1)."""

from repro.addrspace.records import AddressStatus
from repro.core import ProtocolConfig
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.core import messages as m
from repro.net.message import Message
from repro.net.stats import Category

from tests.helpers import add_node, line_agents, make_ctx, passes_over


def test_no_updates_while_near_configurer():
    ctx = make_ctx()
    agents = line_agents(ctx, 2)
    ctx.sim.run(until=60.0)
    assert ctx.stats.hops[Category.MOVEMENT] == 0
    assert agents[1].common.administrator_id is None


def test_update_loc_after_moving_beyond_three_hops():
    ctx = make_ctx()
    agents = line_agents(ctx, 8)  # heads form every ~3 hops
    ctx.sim.run(until=130.0)
    mover = agents[1]
    assert mover.common is not None
    configurer = mover.common.configurer_id
    # Teleport the mover to the far end of the chain (>3 hops away).
    mover.node.mobility = Stationary(Point(100.0 + 120.0 * 7, 500.0))
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 15.0)
    assert ctx.stats.hops[Category.MOVEMENT] > 0
    administrator = mover.common.administrator_id
    assert administrator is not None
    assert administrator != configurer
    hops = ctx.topology.hops(mover.node_id, administrator)
    assert hops is not None and hops <= 3


def test_migrated_member_returns_address_through_nearest_head():
    """A member that migrated away departs gracefully: its address goes
    back through the nearest head, carrying the configurer's IP, and
    ends FREE in the configurer's pool (Section IV-C-1)."""
    ctx = make_ctx()
    line_agents(ctx, 8)
    ctx.sim.run(until=130.0)
    # A member beside the chain's first head, so that its leaving does
    # not cut the chain (moving a chain node would strand node 0).
    mover = add_node(ctx, 8, 100.0, y=600.0)
    mover.on_enter()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    configurer = ctx.agent_of(mover.common.configurer_id)
    address, configurer_ip = mover.ip, mover.common.configurer_ip
    mover.node.mobility = Stationary(Point(100.0 + 120.0 * 7, 600.0))
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 15.0)
    assert mover.common.administrator_id is not None
    assert configurer.network_id == mover.network_id
    nearest = ctx.agent_of(mover._nearest_allocator()[0])
    assert nearest is not configurer
    routed = []
    route = nearest._route_returned_address

    def recording_route(*args):
        routed.append(args)
        route(*args)

    nearest._route_returned_address = recording_route
    mover.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert routed == [(address, configurer_ip, "periodic")]
    assert address in configurer.head.pool.free
    assert configurer.head.ledger.peek(address).status is AddressStatus.FREE


def test_upon_leave_mode_sends_no_location_updates():
    ctx = make_ctx()
    cfg = ProtocolConfig(location_update_mode="upon_leave")
    agents = line_agents(ctx, 8, cfg=cfg)
    ctx.sim.run(until=130.0)
    mover = agents[1]
    mover.node.mobility = Stationary(Point(100.0 + 120.0 * 7, 500.0))
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    assert ctx.stats.hops[Category.MOVEMENT] == 0


def parked_checker(ctx, agents):
    """Common node 1 of a settled line, its location check just run on
    a current graph and labels."""
    checker = agents[1]
    anchor = checker._location_anchor()
    assert checker.common is not None and ctx.is_head(anchor)
    checker._location_timer.unpark()
    ctx.component_entry(checker.node_id)
    checker._check_location()
    return checker, anchor


def test_location_check_parks_only_while_its_stamp_holds():
    """Named for the stamp the check's wakes replaced: a parked check is
    passed over until a write to what its verdict rests on wakes it."""
    ctx = make_ctx()
    agents = line_agents(ctx, 8)
    ctx.sim.run(until=130.0)
    checker, anchor = parked_checker(ctx, agents)
    timer = checker._location_timer
    assert passes_over(timer)
    # A node arriving only adds edges: once the graph is refreshed
    # (the gate reads False until then), the park holds.
    add_node(ctx, 20, 100.0 + 120.0 * 3, y=620.0)
    assert not passes_over(timer)
    ctx.topology.neighbors(checker.node_id)
    assert passes_over(timer)
    # An edge removed in its component wakes it, and the next check
    # parks again: the verdict still holds.
    ctx.topology.remove_node(agents[7].node)
    ctx.topology.neighbors(checker.node_id)
    assert not passes_over(timer)
    checker._check_location()
    assert passes_over(timer)
    # So does its own anchor moving.
    checker._handle_alloc_change(Message(
        mtype=m.ALLOC_CHANGE, src=anchor, dst=checker.node_id,
        payload={"new_id": anchor,
                 "new_ip": checker.common.configurer_ip}))
    assert not passes_over(timer)
    assert ctx.stats.hops[Category.MOVEMENT] == 0


def test_location_check_parks_on_its_first_near_verdict():
    ctx = make_ctx()
    agents = line_agents(ctx, 8)
    ctx.sim.run(until=130.0)
    checker, _anchor = parked_checker(ctx, agents)
    assert passes_over(checker._location_timer)


def test_only_the_anchors_allocator_flip_wakes_the_check():
    ctx = make_ctx()
    agents = line_agents(ctx, 8)
    stranger = add_node(ctx, 30, 100.0, y=1400.0)   # its own component
    ctx.sim.run(until=130.0)
    checker, anchor = parked_checker(ctx, agents)
    timer = checker._location_timer
    ctx.note_allocator(stranger.node_id, True)
    ctx.note_allocator(stranger.node_id, False)
    assert passes_over(timer)
    ctx.note_allocator(anchor, False)
    assert not passes_over(timer)
