"""Address reclamation of abruptly departed cluster heads (Section
IV-D)."""

from repro.cluster.roles import Role
from repro.core import ProtocolConfig
from repro.net.stats import Category

from tests.helpers import make_ctx, positions_cluster


def reclamation_cfg(**overrides):
    overrides.setdefault("td", 1.5)
    overrides.setdefault("tr", 1.0)
    overrides.setdefault("audit_interval", 1.0)
    overrides.setdefault("reclamation_window", 2.0)
    return ProtocolConfig(**overrides)


def redundant_network(ctx, cfg, columns=7):
    coordinates = [(100.0 + 120.0 * i, 500.0) for i in range(columns)]
    coordinates += [(100.0 + 120.0 * i, 560.0) for i in range(columns)]
    agents = positions_cluster(ctx, coordinates, cfg=cfg)
    ctx.sim.run(until=200.0)
    assert all(a.is_configured() for a in agents)
    return agents


def test_dead_head_space_is_absorbed():
    ctx = make_ctx()
    cfg = reclamation_cfg()
    agents = redundant_network(ctx, cfg)
    heads = [a for a in agents if a.role is Role.HEAD]
    victim = heads[1]
    space_of_victim = victim.head.pool.total_count()
    assert space_of_victim > 0
    survivors = [h for h in heads if h is not victim]
    before = sum(h.head.pool.total_count() for h in survivors)
    victim.vanish()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    survivors = [h for h in survivors if h.head is not None]
    after = sum(h.head.pool.total_count() for h in survivors)
    # The victim's unassigned space (everything but addresses held by
    # surviving members) was recovered by exactly one absorber.
    assert after > before
    assert ctx.stats.hops[Category.RECLAMATION] > 0


def test_single_absorber_no_double_ownership():
    ctx = make_ctx()
    cfg = reclamation_cfg()
    agents = redundant_network(ctx, cfg)
    heads = [a for a in agents if a.role is Role.HEAD]
    victim = heads[1]
    victim_addresses = set(victim.head.pool.free) | set(
        victim.head.pool.allocated)
    victim.vanish()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    owners = {}
    for head in heads:
        if head is victim or head.head is None or not head.node.alive:
            continue
        for address in victim_addresses:
            if head.head.pool.owns(address):
                assert address not in owners, (
                    f"address {address} owned by both {owners[address]} "
                    f"and {head.node_id}"
                )
                owners[address] = head.node_id
    assert owners  # someone did absorb


def test_surviving_members_addresses_stay_assigned():
    ctx = make_ctx()
    cfg = reclamation_cfg()
    agents = redundant_network(ctx, cfg)
    heads = [a for a in agents if a.role is Role.HEAD]
    victim = heads[1]
    members = [
        ctx.agent_of(holder) for addr, holder in victim.head.configured.items()
        if ctx.agent_of(holder) is not None and addr != victim.ip
    ]
    victim.vanish()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    for member in members:
        if not member.node.alive or member.common is None:
            continue
        # The member's address must not be reassigned to someone else.
        address = member.common.ip
        for head in heads:
            if head.head is None or not head.node.alive:
                continue
            if head.head.pool.owns(address):
                assert head.head.configured.get(address) in (
                    member.node_id, None)


def test_reclaimed_addresses_become_available():
    ctx = make_ctx()
    cfg = reclamation_cfg(address_space_bits=4)  # tight space: 16
    agents = redundant_network(ctx, cfg, columns=5)
    heads = [a for a in agents if a.role is Role.HEAD]
    if len(heads) < 2:
        return
    victim = heads[1]
    victim.vanish()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    from tests.helpers import add_node
    newcomer = add_node(ctx, 77, 340.0, 440.0, cfg=cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert newcomer.is_configured()


def test_transient_unreachability_cancels_reclamation():
    """A head that merely wandered away and comes back must keep its
    space (no duplicate assignment after healing)."""
    ctx = make_ctx()
    cfg = reclamation_cfg(reclamation_window=6.0)
    agents = redundant_network(ctx, cfg)
    heads = [a for a in agents if a.role is Role.HEAD]
    wanderer = heads[1]
    from repro.geometry import Point
    from repro.mobility.base import Stationary
    home = wanderer.node.position(ctx.sim.now)
    # Vanish from radio range briefly (shorter than the window).
    wanderer.node.mobility = Stationary(Point(3000.0, 3000.0))
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 4.0)
    wanderer.node.mobility = Stationary(home)
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    # Nobody absorbed the wanderer's space.
    for head in heads:
        if head is wanderer or head.head is None:
            continue
        assert not head.head.pool.owns(wanderer.ip)
