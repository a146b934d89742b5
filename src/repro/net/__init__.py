"""Wireless multi-hop network substrate.

This package models what the paper assumes of the underlying MANET:

- nodes with a fixed transmission range (unit-disk connectivity);
- reliable delivery within transmission range (Section IV-B);
- multi-hop unicast along shortest paths, with per-hop cost accounting
  (the paper's latency and overhead metrics are hop counts);
- network-wide and k-hop scoped flooding;
- periodic HELLO beaconing carrying cluster-head advertisements.

All message traffic flows through :class:`~repro.net.transport.Transport`,
which charges hop counts to per-category counters in
:class:`~repro.net.stats.MessageStats` — the raw data behind every
overhead figure in the evaluation.
"""

from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Category, MessageStats
from repro.net.store import NodeStore
from repro.net.topology import Topology
from repro.net.transport import Scope, SendOutcome, Transport
from repro.net.hello import HelloService

__all__ = [
    "Message",
    "Node",
    "Category",
    "MessageStats",
    "NodeStore",
    "Topology",
    "Scope",
    "SendOutcome",
    "Transport",
    "HelloService",
]
