"""System-wide invariants across randomized scenarios.

These are the properties the paper claims for the protocol (Section I):
address uniqueness, data consistency under partition, and address
availability — checked over a spread of seeds and workloads.
"""

import itertools

import pytest

from repro.core import protocol
from repro.experiments import Scenario, ScenarioRunner
from repro.faults import FaultSpec
from repro.addrspace.records import AddressStatus


def run(seed, **kw):
    kw.setdefault("num_nodes", 40)
    kw.setdefault("settle_time", 25.0)
    runner = ScenarioRunner(Scenario.paper_default(seed=seed, **kw))
    return runner, runner.run()


@pytest.mark.parametrize("seed", range(1, 9))
def test_address_uniqueness_across_seeds(seed):
    """No two alive nodes ever end up with the same (network, ip)."""
    _, result = run(seed)
    assert result.uniqueness_ok(), result.duplicate_addresses


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_address_uniqueness_with_churn(seed):
    _, result = run(seed, num_nodes=60, depart_fraction=0.5,
                    abrupt_probability=0.4, settle_time=40.0)
    assert result.uniqueness_ok()


# The meltdown item's probe cell (ROADMAP, "Fix the meltdown"): a lossy
# static run with departures, 30 % of them abrupt.  Before head
# proposals timed out, live heads 80 and 145 of network 1096 both
# ended it booking address 267: head 1 granted it to head 145 as a
# one-address block (t=222.60), then head 80 absorbed dead head 1's
# space from a replica that still covered it (t=240.17).  The run no
# longer reaches that schedule; whether a stale replica can still be
# absorbed elsewhere is open (ROADMAP).
STALE_REPLICA_CELL = Scenario(
    num_nodes=200, seed=11, speed_mps=0.0, depart_fraction=0.3,
    abrupt_probability=0.3, faults=FaultSpec(loss_rate=0.05))


@pytest.mark.parametrize("scenario", [
    pytest.param(Scenario.paper_default(
        seed=seed, num_nodes=60, settle_time=25.0), id=str(seed))
    for seed in (1, 2)
] + [
    pytest.param(STALE_REPLICA_CELL, id="stale-replica-absorb"),
])
def test_no_address_owned_by_two_heads(scenario):
    """Within one network, every address has at most one owning pool."""
    runner = ScenarioRunner(scenario)
    runner.run()
    owners = {}
    for agent in runner.ctx.agents.values():
        head = getattr(agent, "head", None)
        if head is None or not agent.node.alive:
            continue
        for address in itertools.chain(head.pool.free, head.pool.allocated):
            key = (agent.network_id, address)
            assert key not in owners, (
                f"{key} owned by {owners[key]} and {agent.node_id}")
            owners[key] = agent.node_id


@pytest.mark.parametrize("num_nodes, seed", [(100, 11), (200, 11), (200, 12)])
def test_no_space_stranded_in_unclosed_head_proposals(num_nodes, seed,
                                                      monkeypatch):
    """A head proposal takes its block out of the pool; one whose
    CH_PRP or CH_CNF was lost used to keep it for good.  On the lossy
    static cells (bankruptcy re-founds off, so nothing refills the
    space) no live head ends the run with a proposal still holding a
    block it never put to the vote."""
    monkeypatch.setattr(protocol, "DRY_BANKRUPTCY_THRESHOLD", 10**9)
    runner = ScenarioRunner(Scenario(
        num_nodes=num_nodes, seed=seed, speed_mps=0.0, depart_fraction=0.3,
        abrupt_probability=0.3, faults=FaultSpec(loss_rate=0.05)))
    runner.run()
    stranded = sum(
        pending.block.size for agent in runner.ctx.agents.values()
        if agent.node.alive and agent.head is not None
        for pending in agent._pending.values()
        if pending.block is not None and pending.collector is None)
    assert stranded == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_allocator_ledgers_match_pools(seed):
    """An allocator's ledger ASSIGNED set matches its pool's allocated
    set (internal consistency)."""
    runner, _ = run(seed, num_nodes=50)
    for agent in runner.ctx.agents.values():
        head = getattr(agent, "head", None)
        if head is None or not agent.node.alive:
            continue
        for address in head.pool.allocated:
            record = head.ledger.peek(address)
            assert record is not None
            assert record.status is AddressStatus.ASSIGNED, (
                f"head {agent.node_id}: {address} allocated but ledger "
                f"says {record.status}")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_held_addresses_booked_at_most_once(seed):
    """A held address is booked by at most one live allocator of its
    network.  (Zero bookings — a leak where the holder's allocator left
    and the handoff failed — is an availability loss, not a safety
    violation; the address is then out of circulation, never duplicated.)
    """
    runner, result = run(seed, num_nodes=50)
    ctx = runner.ctx
    for agent in ctx.agents.values():
        common = getattr(agent, "common", None)
        if common is None or not agent.node.alive:
            continue
        bookers = [
            other.node_id for other in ctx.agents.values()
            if getattr(other, "head", None) is not None
            and other.node.alive
            and other.network_id == agent.network_id
            and common.ip in other.head.pool.allocated
        ]
        assert len(bookers) <= 1, (
            f"address {common.ip} of node {agent.node_id} booked by "
            f"{bookers}")


def test_graceful_churn_preserves_address_space():
    """After all departures settle, the space booked by live allocators
    plus free space accounts for every live holder (no double-booking,
    bounded leakage)."""
    runner, result = run(3, num_nodes=50, depart_fraction=0.4,
                         abrupt_probability=0.0, settle_time=40.0)
    ctx = runner.ctx
    per_network_booked = {}
    for agent in ctx.agents.values():
        head = getattr(agent, "head", None)
        if head is None or not agent.node.alive:
            continue
        booked = per_network_booked.setdefault(agent.network_id, set())
        for address in head.pool.allocated:
            assert address not in booked
            booked.add(address)


def test_metrics_survive_every_workload():
    _, result = run(5, num_nodes=40, depart_fraction=0.6,
                    abrupt_probability=0.5, settle_time=40.0)
    # All derived metrics are computable without error.
    assert result.avg_config_latency_hops() >= 0
    assert result.config_overhead_per_node() >= 0
    assert result.departure_overhead_per_departure() >= 0
    assert result.maintenance_overhead() >= 0
    assert result.reclamation_overhead() >= 0
    assert 0 <= result.information_loss_pct() <= 100
