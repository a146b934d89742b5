"""The agent registry on ``NetworkContext``: a dict in registration
order, ``allocator_ids``, the bound-address count and ``role_epoch``.

Nothing unregisters an agent, so there is nothing here about eviction;
which operations move ``role_epoch`` is pinned as a table in
``tests/net/test_context.py``.
"""

from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.context import NetworkContext
from repro.net.node import Node


class FakeAgent:
    """The duck type ``register`` reads: .node, .ip."""

    def __init__(self, node_id, ip=None):
        self.node = Node(node_id, Stationary(Point(0.0, 0.0)))
        self.ip = ip


def make_ctx(n=0, **kw):
    ctx = NetworkContext.build(seed=1)
    for i in range(n):
        ctx.register(FakeAgent(i, **kw))
    return ctx


def test_registry_surface_matches_dict_semantics():
    ctx = make_ctx()
    a, b = FakeAgent(7), FakeAgent(3)
    ctx.register(a)
    ctx.register(b)
    assert len(ctx.agents) == 2
    assert 7 in ctx.agents and 99 not in ctx.agents
    assert ctx.agent_of(7) is a and ctx.agents.get(3) is b
    assert ctx.agent_of(99) is None
    # Registration order, not id order.
    assert list(ctx.agents) == [7, 3]
    assert list(ctx.agents.items()) == [(7, a), (3, b)]


def test_reregistering_replaces_in_place():
    ctx = make_ctx()
    old, new = FakeAgent(1, ip=42), FakeAgent(1)
    ctx.register(old)
    ctx.register(FakeAgent(2))
    assert ctx.bound_address_count() == 1
    ctx.register(new)
    assert ctx.agent_of(1) is new
    assert list(ctx.agents) == [1, 2]
    # What the context noted about the id starts over from the
    # replacement agent.
    assert ctx.bound_address_count() == 0


def test_add_snapshots_address_from_agent():
    ctx = make_ctx()
    ctx.register(FakeAgent(1, ip=7))
    ctx.register(FakeAgent(2))
    assert ctx.bound_address_count() == 1


def test_note_writes_through_and_missing_ids_noop():
    ctx = make_ctx(2)
    ctx.bind_ip(9, 0)
    assert ctx.bound_address_count() == 1
    ctx.unbind_ip(9)
    assert ctx.bound_address_count() == 0
    epoch = ctx.role_epoch
    ctx.note_role(0)
    assert ctx.role_epoch == epoch + 1
    # Ids that never registered are ignored: nothing is counted for
    # them and nothing they do can change the component table.
    ctx.note_role(99)
    ctx.bind_ip(1, 99)
    assert ctx.role_epoch == epoch + 1
    assert ctx.bound_address_count() == 0
    assert ctx.resolve_ip(1) == 99


def test_allocator_ids_version_on_flips_and_start_over_on_reregistration():
    ctx = make_ctx(6)
    assert ctx.allocator_ids == set()   # registration starts outside
    epoch = ctx.role_epoch
    ctx.note_allocator(2, True)
    ctx.note_allocator(4, True)
    assert ctx.role_epoch == epoch + 2
    assert ctx.allocator_ids == {2, 4}
    # Re-noting the same answer is free; unknown ids are ignored.
    ctx.note_allocator(2, True)
    ctx.note_allocator(99, True)
    ctx.note_allocator(3, False)
    assert ctx.role_epoch == epoch + 2
    assert ctx.allocator_ids == {2, 4}
    ctx.note_allocator(4, False)
    ctx.note_allocator(4, False)        # idempotent both ways
    assert ctx.allocator_ids == {2}
    ctx.register(FakeAgent(2))
    assert ctx.allocator_ids == set()


def test_bound_address_count_counts_registered_ids_once():
    ctx = make_ctx(6)
    ctx.bind_ip(10, 0)
    ctx.bind_ip(11, 1)
    ctx.bind_ip(12, 1)                  # a second address, same node
    assert ctx.bound_address_count() == 2
