"""Quorum adjustment: suspicion, T_d shrink, REP_REQ probe (Section V-B)."""

from repro.cluster.roles import Role
from repro.core import ProtocolConfig
from repro.core import messages as m
from repro.net.message import Message

from tests.helpers import (add_node, line_agents, make_ctx, passes_over,
                           positions_cluster)


def heads_of(agents):
    return [a for a in agents if a.role is Role.HEAD]


def redundant_rows(ctx, cfg, columns=7):
    """Two parallel rows whose diagonals are in range: killing any one
    node leaves the rest connected (death without partition)."""
    coordinates = [(100.0 + 120.0 * i, 500.0) for i in range(columns)]
    coordinates += [(100.0 + 120.0 * i, 560.0) for i in range(columns)]
    return positions_cluster(ctx, coordinates, cfg=cfg)


def test_dead_member_suspected_then_removed():
    ctx = make_ctx()
    cfg = ProtocolConfig(td=2.0, tr=1.0, audit_interval=1.0)
    agents = redundant_rows(ctx, cfg)
    ctx.sim.run(until=200.0)
    heads = heads_of(agents)
    assert len(heads) >= 2
    victim = heads[1]
    observers = [h for h in heads if h is not victim
                 and victim.node_id in h.head.qdset]
    assert observers
    victim.vanish()
    ctx.sim.run(until=ctx.sim.now + 25.0)
    for observer in observers:
        if observer.head is not None:
            assert victim.node_id not in observer.head.qdset


def test_majority_consent_blocks_minority_shrink():
    """A head that cannot reach a majority of its quorum universe must
    not shrink it (the other side of a partition could do the same and
    both would proceed independently)."""
    ctx = make_ctx()
    cfg = ProtocolConfig(td=2.0, tr=1.0, audit_interval=1.0,
                         merge_detection_enabled=False)
    agents = line_agents(ctx, 7, cfg=cfg)
    ctx.sim.run(until=110.0)
    heads = heads_of(agents)
    edge = heads[-1]
    members_before = set(edge.head.qdset.members())
    assert members_before
    old_network = edge.network_id
    # Kill every OTHER node: edge is alone, majority unreachable.
    for agent in agents:
        if agent is not edge:
            agent.vanish()
    ctx.sim.run(until=ctx.sim.now + 8.0)
    # Either the members are still there (suspected, not removed), or
    # the head gave up on the old network entirely and re-founded a
    # fresh one — but it never shrank the quorum of the old space.
    if edge.network_id == old_network:
        assert set(edge.head.qdset.members()) == members_before


def test_rep_ack_restores_membership():
    """A member that answers the REP_REQ probe is kept (re-added)."""
    ctx = make_ctx()
    cfg = ProtocolConfig(td=1.5, tr=6.0, audit_interval=1.0)
    agents = line_agents(ctx, 7, cfg=cfg)
    ctx.sim.run(until=110.0)
    heads = heads_of(agents)
    observer, subject = heads[0], heads[1]
    # Force suspicion without killing: artificially suspect.
    observer._suspect_member(subject.node_id)
    ctx.sim.run(until=ctx.sim.now + 10.0)
    # Subject is alive and reachable: suspicion cleared on audit.
    assert subject.node_id in observer.head.qdset
    assert observer.head.qdset.suspected() == []


def test_new_head_in_neighborhood_joins_qdset():
    ctx = make_ctx()
    agents = line_agents(ctx, 7)
    ctx.sim.run(until=110.0)
    heads = heads_of(agents)
    for i, a in enumerate(heads):
        for b in heads[i + 1:]:
            hops = ctx.topology.hops(a.node_id, b.node_id)
            if hops is not None and hops <= 3:
                assert b.node_id in a.head.qdset
                assert a.node_id in b.head.qdset


def test_adjustment_disabled_keeps_members():
    ctx = make_ctx()
    cfg = ProtocolConfig(adjustment_enabled=False, audit_interval=1.0,
                         merge_detection_enabled=False)
    agents = redundant_rows(ctx, cfg)
    ctx.sim.run(until=200.0)
    heads = heads_of(agents)
    victim = heads[1]
    observers = [h for h in heads if h is not victim
                 and victim.node_id in h.head.qdset]
    assert observers
    victim.vanish()
    ctx.sim.run(until=ctx.sim.now + 20.0)
    # Without adjustment the member lingers (no Td shrink machinery).
    for observer in observers:
        assert victim.node_id in observer.head.qdset


def parked_auditor(ctx, agents):
    """A head with QDSet members whose audit just parked, on a current
    graph and labels."""
    auditor = next(h for h in heads_of(agents) if len(h.head.qdset))
    ctx.component_entry(auditor.node_id)
    auditor._audit()
    assert passes_over(auditor._audit_timer)
    return auditor


def test_audit_skips_only_while_its_stamp_holds():
    """Named for the stamp the audit's wakes replaced: a parked audit
    is passed over until a write to what it read wakes it."""
    ctx = make_ctx()
    cfg = ProtocolConfig(td=2.0, tr=1.0, audit_interval=1.0)
    agents = redundant_rows(ctx, cfg)
    ctx.sim.run(until=200.0)
    auditor = parked_auditor(ctx, agents)
    member = ctx.agent_of(auditor.head.qdset.members()[0])
    timer = auditor._audit_timer
    # A member head's network id moves no label and no QDSet entry,
    # but the audit reads it (same-network check): the note wakes it.
    member.network_id = member.network_id + 1
    assert not passes_over(timer)
    member.network_id = auditor.network_id
    auditor._audit()
    assert passes_over(timer)
    # A graph due a refresh reads False at the gate: the audit's label
    # question is what refreshes it.  A refresh that changes nothing
    # keeps the park; one that changes the graph anywhere wakes it.
    ctx.topology.invalidate_nodes([member.node_id])
    assert not passes_over(timer)
    ctx.component_entry(auditor.node_id)
    assert passes_over(timer)
    add_node(ctx, 99, 100.0, y=1400.0)
    ctx.component_entry(auditor.node_id)
    assert not passes_over(timer)
    auditor._audit()
    assert passes_over(timer)
    # Its own QDSet changing, or a timer being armed, also ends it.
    auditor.head.qdset.suspect(member.node_id)
    assert not passes_over(timer)
    auditor._audit()        # lifts the suspicion: a change, no park
    assert not timer._parked
    auditor._audit()
    assert passes_over(timer)
    auditor._suspect_member(member.node_id)
    assert not passes_over(timer)


def test_a_qdset_member_added_by_a_handler_wakes_the_parked_audit():
    ctx = make_ctx()
    cfg = ProtocolConfig(td=2.0, tr=1.0, audit_interval=1.0)
    agents = redundant_rows(ctx, cfg)
    ctx.sim.run(until=200.0)
    auditor = parked_auditor(ctx, agents)
    member = auditor.head.qdset.members()[0]
    # Reclaimed, so the audit does not recruit it back: an add only
    # narrows what the audit recruits, and wakes nothing.
    auditor._reclaimed.add(member)
    auditor.head.qdset.remove(member)
    auditor._audit()
    timer = auditor._audit_timer
    assert passes_over(timer) and member not in auditor.head.qdset
    auditor._handle_rep_ack(Message(
        mtype=m.REP_ACK, src=member, dst=auditor.node_id,
        payload={"is_head": True}, network_id=auditor.network_id))
    assert member in auditor.head.qdset
    assert not passes_over(timer)
