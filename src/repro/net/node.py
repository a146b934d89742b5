"""Network nodes.

A :class:`Node` is the physical device: a radio, a mobility model and a
unique hardware identifier.  The IP address (if configured) and all
protocol state live in the attached protocol *agent*; the substrate only
needs identity and position.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.geometry import Point
from repro.mobility.base import MobilityModel, Stationary


class Node:
    """A mobile node.

    Args:
        node_id: unique hardware identifier (MAC-like); never changes.
        mobility: position-vs-time model.  May be replaced when the node
            starts moving (the paper's nodes move only after they are
            configured).
    """

    def __init__(self, node_id: int, mobility: MobilityModel) -> None:
        self.node_id = node_id
        self.mobility = mobility
        self.alive = True
        # The protocol agent bound to this node (set by the agent).
        self.agent: Optional[Any] = None

    def position(self, t: float) -> Point:
        return self.mobility.position(t)

    def pin(self, t: float) -> None:
        """Freeze the node at its current position (stop moving)."""
        self.mobility = Stationary(self.position(t))

    def kill(self) -> None:
        """Power the node off (abrupt departure): no send, no receive."""
        self.alive = False

    def __repr__(self) -> str:
        return f"Node({self.node_id})"

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.node_id == self.node_id
