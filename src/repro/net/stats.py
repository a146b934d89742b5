"""Per-category message accounting.

Every figure in the paper's evaluation is derived from hop counts of
messages, bucketed by purpose: configuration traffic (Figs. 5-8),
departure traffic (Fig. 9), movement/maintenance traffic (Figs. 10-11)
and address-reclamation traffic (Fig. 14).  One transmission from a node
to a one-hop neighbor costs one hop (Section VI-B).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, Tuple

__all__ = ["Category", "MessageStats"]


class Category(enum.Enum):
    """Traffic classes matching the paper's overhead breakdown."""

    CONFIG = "config"            # address configuration exchanges
    DEPARTURE = "departure"      # graceful-leave address return
    MOVEMENT = "movement"        # location updates (UPDATE_LOC)
    MAINTENANCE = "maintenance"  # periodic sync / C-tree reports / replica upkeep
    RECLAMATION = "reclamation"  # ADDR_REC / REC_REP and equivalents
    PARTITION = "partition"      # partition & merge handling
    HELLO = "hello"              # beaconing (common to all protocols)


class MessageStats:
    """Accumulates hop, message and fault-drop counts per category."""

    def __init__(self) -> None:
        self.hops: Dict[Category, int] = defaultdict(int)
        self.messages: Dict[Category, int] = defaultdict(int)
        self.dropped: Dict[Category, int] = defaultdict(int)

    def charge(self, category: Category, hop_count: int, messages: int = 1) -> None:
        """Record ``messages`` transmissions totalling ``hop_count`` hops."""
        if hop_count < 0:
            raise ValueError("hop_count must be non-negative")
        self.hops[category] += hop_count
        self.messages[category] += messages

    def record_drop(self, category: Category, count: int = 1) -> None:
        """Record ``count`` deliveries suppressed by fault injection."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.dropped[category] += count

    def snapshot(self) -> Dict[str, Tuple[int, int]]:
        """``{category: (hops, messages)}`` for reporting."""
        return {c.value: (self.hops[c], self.messages[c]) for c in Category}

    def drops_snapshot(self) -> Dict[str, int]:
        """``{category: dropped}`` for categories with at least one drop.

        Empty for fault-free runs, so pre-fault-layer
        :class:`~repro.experiments.metrics.RunResult` payloads stay
        unchanged byte for byte.
        """
        return {c.value: self.dropped[c] for c in Category if self.dropped[c]}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{c.value}={self.hops[c]}" for c in Category if self.hops[c]
        )
        return f"MessageStats({parts})"
