"""Bulk bootstrap: stand up a pre-configured network in one pass.

Driving thousands of agents through the message-level configuration
protocol just to *reach* a steady state takes minutes of event churn
that a benchmark (or a scenario that studies steady-state behavior)
does not want to measure.  :func:`bulk_configure` builds the same end
state directly — heads with buddy-block IPSpaces, commons configured by
their nearest head, QDSets from the three-hop adjacency, replicas
exchanged — using the batch construction paths end to end:
:meth:`~repro.net.topology.Topology.add_nodes` for the substrate,
:meth:`~repro.addrspace.pool.AddressPool.allocate_many` and
:meth:`~repro.addrspace.records.AddressLedger.bulk_assign` for each
head's pool and ledger, and one replica snapshot per head fanned out to
its members.  Every agent then runs the ordinary configuration epilogue
(:meth:`_finish_configuration`), so timers, roles, bindings and
services are exactly what the message-level path would have left
behind: the network is live, not a mock.

The layout follows the paper's steady state after an initiator founded
the network and grew it cluster by cluster: one founding event (the
lowest-id head, founding epoch 1), every node sharing that network id,
and the address space pre-carved into equal power-of-two blocks, one
per head.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.addrspace.block import Block
from repro.cluster.roles import ADJACENT_HEAD_HOPS
from repro.core.config import ProtocolConfig
from repro.core.protocol import QuorumProtocolAgent
from repro.core.state import CommonState, HeadState
from repro.net.context import NetworkContext
from repro.net.node import Node

#: Default cluster granularity: every ``HEADS_EVERY``-th node (by list
#: position) becomes a cluster head, matching the rough head density the
#: message-level protocol converges to on uniform deployments.
HEADS_EVERY = 25


def _next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1)).bit_length()


def space_bits_for(n: int, heads_every: int = HEADS_EVERY) -> int:
    """Smallest ``address_space_bits`` that can host ``n`` bulk nodes.

    Each head needs a power-of-two block with headroom for its own
    address plus an *uneven* share of commons (nearest-head assignment
    does not balance clusters perfectly), so blocks are sized at twice
    the mean cluster and the block count is rounded up to a power of
    two.
    """
    heads = max(1, -(-n // heads_every))
    block = _next_pow2(2 * heads_every)
    return (_next_pow2(heads) * block - 1).bit_length()


@dataclasses.dataclass
class BulkSetup:
    """What :func:`bulk_configure` built."""

    agents: List[QuorumProtocolAgent]
    heads: List[int]
    founder: int
    network_id: int
    #: Commons whose nearest head's block was full and who were placed
    #: at the nearest head with free space instead (0 on sane layouts).
    spilled: int


def bulk_configure(
    ctx: NetworkContext,
    cfg: ProtocolConfig,
    nodes: Sequence[Node],
    *,
    heads_every: int = HEADS_EVERY,
) -> BulkSetup:
    """Bootstrap ``nodes`` into one configured network, batched.

    ``nodes`` must not yet be in the topology; they are added in one
    :meth:`~repro.net.topology.Topology.add_nodes` batch.  Every
    ``heads_every``-th node (by position in ``nodes``) becomes a
    cluster head; the rest are configured as commons of their
    euclidean-nearest head.  Raises ``ValueError`` when
    ``cfg.address_space_bits`` is too small for the layout (see
    :func:`space_bits_for`).
    """
    if not nodes:
        raise ValueError("bulk_configure needs at least one node")
    topo = ctx.topology
    sim = ctx.sim
    topo.add_nodes(nodes)
    agents = [QuorumProtocolAgent(ctx, node, cfg) for node in nodes]
    by_id: Dict[int, QuorumProtocolAgent] = {
        agent.node_id: agent for agent in agents}

    head_ids = sorted(node.node_id for node in nodes[::heads_every])
    head_set = set(head_ids)
    block_size = _next_pow2(2 * heads_every)
    if _next_pow2(len(head_ids)) * block_size > cfg.address_space_size:
        raise ValueError(
            f"address space 2**{cfg.address_space_bits} too small for "
            f"{len(nodes)} bulk nodes; need address_space_bits >= "
            f"{space_bits_for(len(nodes), heads_every)}")

    # One founding event: the lowest-id head is the initiator and every
    # node joins its network (epoch 1, same id arithmetic the live
    # protocol uses — see PartitionMixin._new_network_id).
    founder = head_ids[0]
    network_id = by_id[founder]._new_network_id()

    # Heads: equal power-of-two blocks, own address = block start.
    positions = {node.node_id: node.position(sim.now) for node in nodes}
    for rank, head_id in enumerate(head_ids):
        agent = by_id[head_id]
        agent.head = HeadState(Block(rank * block_size, block_size), head_id)
        agent.network_id = network_id

    # Commons: group by nearest head, then one allocate_many /
    # bulk_assign per head.  A head whose block fills up spills its
    # overflow (farthest first) to the nearest head with space left.
    def dist_sq(a: int, b: int) -> float:
        pa, pb = positions[a], positions[b]
        dx, dy = pa.x - pb.x, pa.y - pb.y
        return dx * dx + dy * dy

    def nearest_heads(common_id: int) -> List[int]:
        return sorted(head_ids, key=lambda h: (dist_sq(common_id, h), h))

    clusters: Dict[int, List[int]] = {h: [] for h in head_ids}
    for node in nodes:
        if node.node_id in head_set:
            continue
        clusters[nearest_heads(node.node_id)[0]].append(node.node_id)

    spilled: List[int] = []
    for head_id in head_ids:
        agent = by_id[head_id]
        state = agent.head
        assert state is not None
        group = sorted(
            clusters[head_id],
            key=lambda c: (dist_sq(c, head_id), c))
        addresses = state.pool.allocate_many(len(group))
        kept, overflow = group[:len(addresses)], group[len(addresses):]
        spilled.extend(overflow)
        assignments = list(zip(addresses, kept))
        state.ledger.bulk_assign(assignments)
        for address, common_id in assignments:
            state.configured[address] = common_id
            common = by_id[common_id]
            common.common = CommonState(
                ip=address, configurer_id=head_id, configurer_ip=state.ip)
            common.network_id = network_id

    for common_id in sorted(spilled):
        for head_id in nearest_heads(common_id):
            state = by_id[head_id].head
            assert state is not None
            address = state.pool.allocate()
            if address is None:
                continue
            state.ledger.mark_assigned(address, common_id)
            state.configured[address] = common_id
            common = by_id[common_id]
            common.common = CommonState(
                ip=address, configurer_id=head_id, configurer_ip=state.ip)
            common.network_id = network_id
            break
        else:
            raise ValueError(
                f"address space exhausted placing node {common_id}")

    # QDSets from the three-hop head adjacency (roles are not set yet,
    # so membership comes from our own head set, not ctx.is_head), then
    # one replica snapshot per head fanned out to its members.
    for head_id in head_ids:
        state = by_id[head_id].head
        assert state is not None
        for other, _hops in topo.within_hops(head_id, ADJACENT_HEAD_HOPS):
            if other in head_set:
                state.qdset.add(other)
    for head_id in head_ids:
        agent = by_id[head_id]
        assert agent.head is not None
        members = agent.head.qdset.members()
        if not members:
            continue
        snapshot = agent._replica_snapshot()
        for member in members:
            by_id[member]._install_replica_from(snapshot)

    # The ordinary configuration epilogue: roles, IP bindings, audit /
    # location / merge-watch timers, callbacks.
    for agent in agents:
        agent.entered_at = sim.now
        agent._finish_configuration(latency_hops=0)

    return BulkSetup(agents=agents, heads=head_ids, founder=founder,
                     network_id=network_id, spilled=len(spilled))
