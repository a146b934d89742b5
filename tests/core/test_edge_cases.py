"""Edge-case coverage for the core protocol's safety machinery."""

from repro.addrspace import Block
from repro.addrspace.records import AddressStatus
from repro.cluster.roles import Role
from repro.core import ProtocolConfig
from repro.core import messages as m
from repro.core.protocol import CONFLICT_TS
from repro.core.state import CommonState
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.message import Message
from repro.net.stats import Category

from tests.helpers import add_node, line_agents, make_ctx, positions_cluster


def configured_chain(ctx, count, cfg=None):
    agents = line_agents(ctx, count, cfg=cfg)
    ctx.sim.run(until=count * 15.0 + 20.0)
    return agents


# ---------------------------------------------------------------------------
# Relay / agent-forwarding (Section V-A second paragraph)
# ---------------------------------------------------------------------------
def test_dry_head_without_quorum_relays_to_configurer():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=3, borrowing_enabled=True)
    agents = configured_chain(ctx, 4, cfg=cfg)
    head3 = agents[3]
    assert head3.role is Role.HEAD
    # Drain head3's own space AND make its replicas useless by draining
    # head0 as well, so select_candidate finds nothing and the request
    # must be relayed (or self-audited).
    for agent in (agents[0], head3):
        while agent.head.pool.peek_free() is not None:
            agent.head.pool.allocate()
        for address in list(agent.head.pool.allocated):
            agent.head.ledger.mark_assigned(address, holder=999)
    for replica_owner in head3.head.replicas.owners():
        replica = head3.head.replicas.get(replica_owner)
        for address in list(replica.free_addresses()):
            replica.ledger.mark_assigned(address, holder=999)
    newcomer = add_node(ctx, 50, 100.0 + 120.0 * 4, cfg=cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    # The network is genuinely full: the newcomer must not be configured
    # with a duplicate, whatever else happens.
    if newcomer.ip is not None:
        for agent in agents:
            if agent.ip is not None:
                assert (agent.network_id, agent.ip) != (
                    newcomer.network_id, newcomer.ip)


# ---------------------------------------------------------------------------
# Cross-owner conflict veto
# ---------------------------------------------------------------------------
def test_conflict_veto_blocks_forked_ownership():
    ctx = make_ctx()
    cfg = ProtocolConfig(use_linear_voting=False)
    agents = configured_chain(ctx, 7, cfg=cfg)  # heads at 0, 3, 6
    heads = [a for a in agents if a.role is Role.HEAD]
    assert len(heads) >= 2
    a, b = heads[0], heads[1]
    # Fork ownership artificially: give head A a free block that B also
    # owns (the corruption the veto defends against).
    stolen = sorted(b.head.pool.allocated)[0]
    a.head.pool.absorb_free(stolen)
    before = ctx.agent_of(b.head.configured.get(stolen, -1))
    # A proposes the stolen address to a newcomer.
    newcomer = add_node(ctx, 60, 100.0, 560.0, cfg=cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 25.0)
    if newcomer.ip is not None:
        holder = b.head.configured.get(stolen)
        if holder is not None and holder != newcomer.node_id:
            assert newcomer.ip != stolen, (
                "conflict veto failed: forked address assigned")


def test_conflict_votes_never_pollute_ledgers():
    ctx = make_ctx()
    agents = configured_chain(ctx, 4)
    head = agents[0]
    for _address, record in head.head.ledger.items():
        assert record.timestamp < CONFLICT_TS


# ---------------------------------------------------------------------------
# INIT coordination
# ---------------------------------------------------------------------------
def test_init_defer_from_configured_node():
    ctx = make_ctx()
    agents = configured_chain(ctx, 3)
    # An unconfigured newcomer next to a configured common node whose
    # head is out of its 2-hop range: it must NOT found a second
    # network, but join via the CH_REQ path.
    newcomer = add_node(ctx, 50, 100.0 + 120.0 * 3)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert newcomer.is_configured()
    assert newcomer.network_id == agents[0].network_id


def test_three_simultaneous_entrants_one_network():
    ctx = make_ctx()
    cfg = ProtocolConfig()
    agents = []
    for i in range(3):
        agent = add_node(ctx, i, 440.0 + 60.0 * i, cfg=cfg)
        ctx.sim.schedule(0.1 + 0.01 * i, agent.on_enter)
        agents.append(agent)
    ctx.sim.run(until=60.0)
    assert all(a.is_configured() for a in agents)
    assert len({a.network_id for a in agents}) == 1


# ---------------------------------------------------------------------------
# Declines and rollback
# ---------------------------------------------------------------------------
def test_duplicate_com_cfg_is_reacked_not_declined():
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    head, common = agents
    # Replay the configuration grant.
    replay = Message(m.COM_CFG, src=head.node_id, dst=common.node_id,
                     payload={"address": common.ip,
                              "allocator_ip": head.head.ip,
                              "allocator_id": head.node_id,
                              "network_id": head.network_id,
                              "lat": 0, "attempt": 12345},
                     network_id=head.network_id)
    common.on_message(replay)
    ctx.sim.run(until=ctx.sim.now + 5.0)
    # The address was not rolled back at the allocator.
    assert common.ip in head.head.pool.allocated


def test_foreign_grant_is_declined_and_rolled_back():
    ctx = make_ctx()
    agents = configured_chain(ctx, 5)  # heads at 0, 3
    head0, head3 = agents[0], agents[3]
    follower = agents[4]
    # head0 "grants" the follower an address it never asked to keep.
    from repro.core.configuration import PendingConfig
    free = head0.head.pool.peek_free()
    assert free is not None
    pending = PendingConfig(attempt_id=next(ctx.attempt_ids),
                            requester=follower.node_id,
                            address=free, owner_id=head0.node_id)
    pending.collector = None
    head0._pending[pending.attempt_id] = pending
    head0.head.pool.allocate(free)
    head0.head.ledger.mark_assigned(free, follower.node_id)
    pending.cfg_delivered = True
    grant = Message(m.COM_CFG, src=head0.node_id, dst=follower.node_id,
                    payload={"address": free,
                             "allocator_ip": head0.head.ip,
                             "allocator_id": head0.node_id,
                             "network_id": head0.network_id,
                             "lat": 0, "attempt": pending.attempt_id},
                    network_id=head0.network_id)
    follower.on_message(grant)
    ctx.sim.run(until=ctx.sim.now + 5.0)
    # The follower declined (already configured elsewhere) and head0
    # rolled the grant back.
    assert head0.head.pool.is_free(free)
    assert head0.head.ledger.get(free).status is AddressStatus.FREE


# ---------------------------------------------------------------------------
# Head-kind grants (CH_REQ -> CH_PRP -> CH_CNF -> vote -> CH_CFG) and the
# grant cleanup of both kinds
# ---------------------------------------------------------------------------
def received_types(agent, on_arrival=None):
    """Record the message types ``agent`` receives; ``on_arrival(msg)``
    runs first and may swallow a message by returning True."""
    received = []
    original = agent.on_message

    def on_message(msg):
        received.append(msg.mtype)
        if on_arrival is None or not on_arrival(msg):
            original(msg)

    agent.on_message = on_message
    return received


def request(mtype, requester, head):
    return Message(mtype, src=requester.node_id, dst=head.node_id,
                   payload={"seq": 1, "lat": 0})


def move_away(ctx, agent):
    agent.node.mobility = Stationary(Point(5000.0, 5000.0))
    ctx.topology.invalidate()


def test_acd_conflict_on_head_grant_nacks_and_books_the_conflict():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)
    head, common = configured_chain(ctx, 2, cfg=cfg)
    requester = add_node(ctx, 50, 100.0, 620.0, cfg=cfg)  # 1 hop from head
    received = received_types(requester)
    free_before = set(head.head.pool.free_addresses())
    head.on_message(request(m.CH_REQ, requester, head))
    (pending,) = head._pending.values()
    block = pending.block
    assert block is not None and pending.kind == "head"
    # A live node of the same network already answers for an address
    # of the proposed block: commit-time detection must refuse it.
    conflict = block.start + 3
    ctx.bind_ip(conflict, common.node_id)
    ctx.sim.run(until=ctx.sim.now + 0.5)
    assert received == [m.CH_PRP, m.CH_NACK]
    assert head._pending == {}
    assert conflict in head.head.pool.allocated
    record = head.head.ledger.get(conflict)
    assert record.status is AddressStatus.ASSIGNED
    assert record.holder == common.node_id
    assert set(head.head.pool.free_addresses()) == free_before - {conflict}


def test_declined_head_grant_returns_the_block_and_writes_it_back():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)
    agents = configured_chain(ctx, 4, cfg=cfg)  # heads at 0 and 3
    head, other = agents[0], agents[3]
    assert other.node_id in head.head.qdset
    requester = add_node(ctx, 50, 100.0, 620.0, cfg=cfg)

    def configured_elsewhere(msg):
        # The requester got an address from someone else while the
        # grant was in flight, so it must decline the block.
        if msg.mtype == m.CH_CFG:
            requester.common = CommonState(ip=60, configurer_id=other.node_id,
                                           configurer_ip=other.head.ip)
        return False

    received = received_types(requester, configured_elsewhere)
    free_before = head.head.pool.free_count()
    head.on_message(request(m.CH_REQ, requester, head))
    (pending,) = head._pending.values()
    start = pending.block.start
    ctx.sim.run(until=ctx.sim.now + 0.5)
    assert received == [m.CH_PRP, m.CH_CFG]
    assert requester.head is None
    assert head._pending == {}
    assert head.head.pool.free_count() == free_before
    assert head.head.ledger.get(start).status is AddressStatus.FREE
    assert start not in head.head.configured
    # The release was written back: the QDSet member's replica agrees.
    replica = other.head.replicas.get(head.node_id)
    assert replica.ledger.get(start).status is AddressStatus.FREE
    assert replica.covers(start)


def test_grant_cleanup_rolls_back_an_undelivered_common_grant():
    ctx = make_ctx()
    head, _common = configured_chain(ctx, 2)
    requester = add_node(ctx, 50, 100.0, 620.0)
    move_away(ctx, requester)
    head.on_message(request(m.COM_REQ, requester, head))
    (pending,) = head._pending.values()
    address = pending.address
    # Committed at once (empty QDSet), but the grant found no route.
    assert pending.committed and not pending.cfg_delivered
    assert address in head.head.pool.allocated
    ctx.sim.run(until=ctx.sim.now + 4 * head.cfg.config_timeout + 1.0)
    assert head._pending == {}
    assert head.head.pool.is_free(address)
    assert head.head.ledger.get(address).status is AddressStatus.FREE
    assert address not in head.head.configured


def test_grant_cleanup_keeps_a_delivered_unacknowledged_common_grant():
    ctx = make_ctx()
    head, _common = configured_chain(ctx, 2)
    requester = add_node(ctx, 50, 100.0, 620.0)
    received = received_types(
        requester, lambda msg: msg.mtype == m.COM_CFG)  # never ACKs
    head.on_message(request(m.COM_REQ, requester, head))
    (pending,) = head._pending.values()
    address = pending.address
    ctx.sim.run(until=ctx.sim.now + 4 * head.cfg.config_timeout + 1.0)
    assert received == [m.COM_CFG]
    assert head._pending == {}
    assert address in head.head.pool.allocated
    assert head.head.ledger.get(address).status is AddressStatus.ASSIGNED
    assert head.head.configured[address] == requester.node_id


def test_undelivered_head_grant_returns_the_block_without_a_nack():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)
    head, _common = configured_chain(ctx, 2, cfg=cfg)
    requester = add_node(ctx, 50, 100.0, 620.0, cfg=cfg)

    def leave_after_confirming(msg):
        if msg.mtype == m.CH_PRP:
            requester._handle_ch_prp(msg)  # CH_CNF is on its way
            move_away(ctx, requester)
            return True
        return False

    received = received_types(requester, leave_after_confirming)
    free_before = head.head.pool.free_count()
    head.on_message(request(m.CH_REQ, requester, head))
    ctx.sim.run(until=ctx.sim.now + 4 * cfg.config_timeout + 1.0)
    assert received == [m.CH_PRP]
    assert head._pending == {}
    assert head.head.pool.free_count() == free_before


def test_grant_cleanup_keeps_a_delivered_unacknowledged_head_grant():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)
    head, _common = configured_chain(ctx, 2, cfg=cfg)
    requester = add_node(ctx, 50, 100.0, 620.0, cfg=cfg)
    received = received_types(
        requester, lambda msg: msg.mtype == m.CH_CFG)  # never ACKs
    free_before = head.head.pool.free_count()
    head.on_message(request(m.CH_REQ, requester, head))
    (pending,) = head._pending.values()
    block = pending.block
    ctx.sim.run(until=ctx.sim.now + 4 * cfg.config_timeout + 1.0)
    assert received == [m.CH_PRP, m.CH_CFG]
    assert head._pending == {}
    assert head.head.pool.free_count() == free_before - block.size
    assert not head.head.pool.owns(block.start)
    assert head.head.ledger.get(block.start).status is AddressStatus.ASSIGNED


def test_vote_timeout_on_head_grant_returns_the_block():
    ctx = make_ctx()
    # Majority voting: with one silent member of two, no quorum forms.
    cfg = ProtocolConfig(address_space_bits=6, use_linear_voting=False)
    agents = configured_chain(ctx, 4, cfg=cfg)  # heads at 0 and 3
    head, silent = agents[0], agents[3]
    assert silent.node_id in head.head.qdset
    received_types(silent, lambda msg: msg.mtype == m.QUORUM_CLT)
    requester = add_node(ctx, 50, 100.0, 620.0, cfg=cfg)
    received = received_types(requester)
    free_before = head.head.pool.free_count()
    head.on_message(request(m.CH_REQ, requester, head))
    (pending,) = head._pending.values()
    ctx.sim.run(until=ctx.sim.now + 0.5)
    assert pending.collector is not None and head.live_vote_timers == 1
    assert head.head.pool.free_count() < free_before
    ctx.sim.run(until=ctx.sim.now + cfg.config_timeout)
    assert received == [m.CH_PRP, m.CH_NACK]
    assert head._pending == {} and head.live_vote_timers == 0
    assert head.head.pool.free_count() == free_before


# ---------------------------------------------------------------------------
# Out-of-addresses audit (REC_AUDIT)
# ---------------------------------------------------------------------------
def test_self_audit_recovers_dead_holders_addresses():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=3, reclamation_window=1.0)
    agents = configured_chain(ctx, 3, cfg=cfg)
    head = agents[0]
    victim = agents[1]
    leaked = victim.ip
    victim.vanish()  # abrupt: the address leaks
    ctx.sim.run(until=ctx.sim.now + 5.0)
    assert leaked in head.head.pool.allocated
    # Exhaust the pool so a new request triggers the audit.
    while head.head.pool.peek_free() is not None:
        head.head.pool.allocate()
    newcomer = add_node(ctx, 50, 220.0, 560.0, cfg=cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    # The dead node's address was recovered (and possibly reused).
    assert (head.head.pool.is_free(leaked)
            or head.head.configured.get(leaked) not in (victim.node_id,))


def test_self_audit_spares_alive_distant_holders():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=3, reclamation_window=1.0)
    agents = configured_chain(ctx, 3, cfg=cfg)
    head, member = agents[0], agents[1]
    held = member.ip
    # The member wanders away (alive, unreachable).
    member.node.mobility = Stationary(Point(5000.0, 5000.0))
    ctx.topology.invalidate()
    while head.head.pool.peek_free() is not None:
        head.head.pool.allocate()
    newcomer = add_node(ctx, 50, 220.0, 560.0, cfg=cfg)
    newcomer.on_enter()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    # The alive holder's address is never freed.
    assert held in head.head.pool.allocated


# ---------------------------------------------------------------------------
# Retry helper
# ---------------------------------------------------------------------------
def test_send_with_retry_eventually_delivers():
    ctx = make_ctx()
    agents = configured_chain(ctx, 2)
    head, common = agents
    # Take the common node out of range, send, then bring it back.
    home = common.node.position(ctx.sim.now)
    common.node.mobility = Stationary(Point(5000.0, 5000.0))
    ctx.topology.invalidate()
    received = []
    original = common.on_message
    common.on_message = lambda msg: (received.append(msg.mtype),
                                     original(msg))
    head._send_with_retry(common.node_id, m.REP_REQ, {}, Category.MAINTENANCE,
                          retries=5, spacing=1.0)
    ctx.sim.run(until=ctx.sim.now + 2.0)
    assert "REP_REQ" not in received
    common.node.mobility = Stationary(home)
    ctx.topology.invalidate()
    ctx.sim.run(until=ctx.sim.now + 6.0)
    assert "REP_REQ" in received
