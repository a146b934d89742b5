"""Head-level exchanges that lose one named message (Sections IV-B,
IV-C-2 and IV-D): a head proposal whose ``CH_CNF`` never arrives, a
hand-off whose ``CH_RETURN`` or ``CH_RETURN_ACK`` never arrives, and a
reclamation whose ``REC_DELEGATE`` never arrives.  Each must leave the
space in exactly one pool, and no wait acts for a powered-off head."""

import dataclasses

import pytest

from repro.cluster.roles import Role
from repro.core import ProtocolConfig
from repro.core import messages as m
from repro.net.message import Message

from tests.helpers import (add_node, line_agents, make_ctx,
                           positions_cluster, sends_from)

#: What the strict xfails below wait for.
STEP_2 = "ROADMAP item 4 step 2 (every reply the protocol waits for)"


def drop(agents, mtype):
    """Swallow every ``mtype`` message delivered to ``agents``; return
    the list the swallowed messages are recorded in."""
    dropped = []
    for agent in agents:
        original = agent.on_message

        def on_message(msg, original=original):
            if msg.mtype == mtype:
                dropped.append(msg)
            else:
                original(msg)

        agent.on_message = on_message
    return dropped


def owners(agents, addresses):
    """address -> the live heads whose pool holds it."""
    held = {address: [] for address in addresses}
    for agent in agents:
        if agent.head is None or not agent.node.alive:
            continue
        for address in addresses:
            if agent.head.pool.owns(address):
                held[address].append(agent.node_id)
    return held


def lossy_departure_cfg():
    return ProtocolConfig(td=1.5, tr=1.0, audit_interval=1.0,
                          reclamation_window=2.0)


def two_rows(ctx, cfg, columns=7):
    coordinates = [(100.0 + 120.0 * i, 500.0) for i in range(columns)]
    coordinates += [(100.0 + 120.0 * i, 560.0) for i in range(columns)]
    agents = positions_cluster(ctx, coordinates, cfg=cfg)
    ctx.sim.run(until=200.0)
    assert all(agent.is_configured() for agent in agents)
    return agents


def departing_head(agents, index):
    heads = [agent for agent in agents if agent.role is Role.HEAD]
    victim = heads[index]
    assert victim.head.qdset.members()
    space = set(victim.head.pool.free) | set(victim.head.pool.allocated)
    return victim, space


def test_dropped_ch_cnf_returns_the_block_within_config_timeout():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)
    head, _common = line_agents(ctx, 2, cfg=cfg)
    ctx.sim.run(until=50.0)
    requester = add_node(ctx, 50, 100.0, 620.0, cfg=cfg)  # 1 hop from head
    dropped = drop([head], m.CH_CNF)
    free_before = set(head.head.pool.free)
    head.on_message(Message(m.CH_REQ, src=requester.node_id,
                            dst=head.node_id, payload={"seq": 1, "lat": 0}))
    (pending,) = head._pending.values()
    ctx.sim.run(until=ctx.sim.now + 0.5 * cfg.config_timeout)
    assert [msg.mtype for msg in dropped] == [m.CH_CNF]
    assert not head.head.pool.owns(pending.block.start)
    ctx.sim.run(until=ctx.sim.now + 0.5 * cfg.config_timeout + 0.01)
    assert head._pending == {}
    assert set(head.head.pool.free) == free_before


def test_dropped_ch_return_is_reclaimed():
    ctx = make_ctx()
    agents = two_rows(ctx, lossy_departure_cfg())
    victim, space = departing_head(agents, 1)
    dropped = drop(agents, m.CH_RETURN)
    victim.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert not victim.node.alive
    assert dropped   # the hand-off and its resend were both lost
    # Without an acknowledgement the head did not resign, so its QDSet
    # members' replicas let reclamation recover the whole space.
    held = owners(agents, space)
    assert all(len(heads) == 1 for heads in held.values()), held


def test_dropped_ch_return_ack_leaves_the_space_in_one_pool():
    ctx = make_ctx()
    agents = two_rows(ctx, lossy_departure_cfg())
    # The first head has no configurer, so it returns its space to the
    # QDSet member with the smallest block, which is not the lowest-id
    # replica holder: that one is elected to absorb, unless told not to.
    victim, space = departing_head(agents, 0)
    target = victim._return_targets()[0]
    assert target != min(victim.head.qdset.members())
    dropped = drop([victim], m.CH_RETURN_ACK)
    resigns = drop(agents, m.RESIGN)
    victim.depart_gracefully()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert not victim.node.alive
    assert len(dropped) == 2 and resigns == []
    # The target absorbed the space; the members that reclaimed the
    # head that never resigned learned so and absorbed nothing.
    assert {msg.src for msg in dropped} == {target}
    held = owners(agents, space)
    assert all(heads == [target] for heads in held.values()), held


def test_rejoin_hands_over_the_block_of_an_open_proposal():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)
    agents = line_agents(ctx, 4, cfg=cfg)  # heads at 0 and 3
    ctx.sim.run(until=80.0)
    configurer, rejoiner = agents[0], agents[3]
    assert rejoiner.role is Role.HEAD
    requester = add_node(ctx, 50, 100.0 + 120.0 * 3, 620.0, cfg=cfg)
    drop([rejoiner], m.CH_CNF)
    returns = []
    original = configurer.on_message

    def record_returns(msg):
        if msg.mtype == m.CH_RETURN:
            returns.append(msg)
        original(msg)

    configurer.on_message = record_returns
    rejoiner.on_message(Message(m.CH_REQ, src=requester.node_id,
                                dst=rejoiner.node_id,
                                payload={"seq": 1, "lat": 0}))
    (pending,) = rejoiner._pending.values()
    block = pending.block
    ctx.sim.run(until=ctx.sim.now + 0.1)
    rejoiner.on_message(Message(m.MERGE_JOIN, src=configurer.node_id,
                                dst=rejoiner.node_id))
    ctx.sim.run(until=ctx.sim.now + 0.1)
    (handoff,) = returns
    handed = {address for start, size in handoff.payload["blocks"]
              for address in range(start, start + size)}
    assert set(block.addresses()) <= handed
    assert all(configurer.head.pool.owns(address)
               for address in block.addresses())


@pytest.mark.xfail(strict=True, reason=f"{STEP_2}: REC_DELEGATE has no "
                   "closer; the initiator marks the dead head reclaimed")
def test_dropped_rec_delegate_still_gets_the_space_absorbed():
    ctx = make_ctx()
    cfg = lossy_departure_cfg()
    # Node 0, the lowest-id replica holder, does not probe its QDSet, so
    # the other survivor initiates and delegates the absorption to it.
    quiet = dataclasses.replace(cfg, adjustment_enabled=False)
    coordinates = [(100.0 + 120.0 * i, y) for y in (500.0, 560.0)
                   for i in range(7)]
    agents = []
    for node_id, (x, y) in enumerate(coordinates):
        agents.append(add_node(ctx, node_id, x, y,
                               cfg=quiet if node_id == 0 else cfg))
        ctx.sim.schedule(5.0 * node_id + 0.1, agents[-1].on_enter)
    ctx.sim.run(until=200.0)
    victim, space = departing_head(agents, 1)
    dropped = drop(agents, m.REC_DELEGATE)
    victim.vanish()
    ctx.sim.run(until=ctx.sim.now + 30.0)
    assert [(msg.src, msg.dst) for msg in dropped] == [(6, 0)]
    held = owners(agents, space)
    assert all(len(heads) == 1 for heads in held.values()), held


@pytest.mark.xfail(strict=True, reason=f"{STEP_2}: the grant wait "
                   "survives power-off (QuorumProtocolAgent.SURVIVORS)")
def test_an_undelivered_grant_is_not_rolled_back_from_a_dead_head():
    ctx = make_ctx()
    cfg = ProtocolConfig(address_space_bits=6)
    head = line_agents(ctx, 4, cfg=cfg)[0]   # heads at 0 and 3
    ctx.sim.run(until=80.0)
    requester = add_node(ctx, 50, 5000.0, 500.0, cfg=cfg)   # no route
    head.on_message(Message(m.COM_REQ, src=requester.node_id,
                            dst=head.node_id, payload={"seq": 1, "lat": 0}))
    deadline = ctx.sim.now + cfg.config_timeout
    while (ctx.sim.now < deadline
           and not any(kind == "grant" for kind, _id in head._awaited)):
        ctx.sim.run(until=ctx.sim.now + 0.01)
    (pending,) = head._pending.values()
    assert not pending.cfg_delivered
    sent = sends_from(ctx, head.node_id)
    head.vanish()
    ctx.sim.run(until=ctx.sim.now + 4 * cfg.config_timeout + 1.0)
    assert sent == []
