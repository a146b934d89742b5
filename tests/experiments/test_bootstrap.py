"""Bulk bootstrap: the batched stand-up must leave a live network."""

import pytest

from repro.core.config import ProtocolConfig
from repro.experiments.bootstrap import (
    HEADS_EVERY, bulk_configure, space_bits_for)
from repro.geometry import Point
from repro.mobility.base import Stationary
from repro.net.context import NetworkContext
from repro.net.node import Node


def grid_nodes(n, spacing=100.0, per_row=10):
    return [Node(i, Stationary(Point((i % per_row) * spacing,
                                     (i // per_row) * spacing)))
            for i in range(n)]


def stand_up(n=60, heads_every=20, bits=None):
    ctx = NetworkContext.build(seed=3, transmission_range=150.0)
    cfg = ProtocolConfig(
        address_space_bits=(space_bits_for(n, heads_every)
                            if bits is None else bits))
    nodes = grid_nodes(n)
    return ctx, bulk_configure(ctx, cfg, nodes, heads_every=heads_every)


def test_space_bits_for_hosts_the_layout():
    for n in (1, 24, 25, 26, 100, 1000):
        bits = space_bits_for(n)
        cfg = ProtocolConfig(address_space_bits=bits)
        heads = max(1, -(-n // HEADS_EVERY))
        # Twice the mean cluster per head, head count rounded up to a
        # power of two, must fit the space exactly once.
        assert heads * 2 * HEADS_EVERY <= cfg.address_space_size


def test_bulk_configure_builds_one_network():
    ctx, setup = stand_up()
    assert setup.heads == [0, 20, 40]
    assert setup.founder == 0
    assert setup.spilled == 0
    networks = {agent.network_id for agent in setup.agents}
    assert networks == {setup.network_id}
    for agent in setup.agents:
        assert agent.is_configured()
    for head_id in setup.heads:
        assert ctx.is_head(head_id)


def test_bulk_configure_addresses_unique_and_bound():
    ctx, setup = stand_up()
    addresses = [agent.ip for agent in setup.agents]
    assert None not in addresses
    assert len(set(addresses)) == len(addresses)
    for agent in setup.agents:
        assert ctx.resolve_ip(agent.ip) == agent.node_id


def test_bulk_configure_heads_get_qdsets():
    _, setup = stand_up()
    heads = [a for a in setup.agents if a.node_id in set(setup.heads)]
    # On a connected 6x10 grid every head sees the adjacent heads.
    for agent in heads:
        assert agent.head is not None
        assert agent.head.qdset.members()


def test_bulk_configure_commons_point_at_their_head():
    _, setup = stand_up()
    head_set = set(setup.heads)
    for agent in setup.agents:
        if agent.node_id in head_set:
            continue
        assert agent.common is not None
        assert agent.common.configurer_id in head_set


def test_bulk_configure_rejects_too_small_space():
    with pytest.raises(ValueError, match="too small"):
        stand_up(n=60, heads_every=20, bits=5)


def test_bulk_configure_rejects_empty():
    ctx = NetworkContext.build(seed=1)
    with pytest.raises(ValueError, match="at least one node"):
        bulk_configure(ctx, ProtocolConfig(), [])


def test_bulk_configure_matches_component_queries():
    """The stood-up network must be visible through the label layer."""
    ctx, setup = stand_up()
    assert ctx.component_heads(setup.founder) == tuple(setup.heads)
    assert ctx.component_entry(setup.founder)[2] == {setup.network_id}
