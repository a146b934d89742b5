"""Address representation.

Addresses are plain integers (offsets into the network's address space)
for speed; these helpers render them as dotted quads under a base prefix
for human-readable traces and logs.
"""

from __future__ import annotations

DEFAULT_BASE = (10 << 24)  # 10.0.0.0


def format_ip(address: int, base: int = DEFAULT_BASE) -> str:
    """Render an integer address as a dotted quad under ``base``.

    >>> format_ip(1)
    '10.0.0.1'
    >>> format_ip(256)
    '10.0.1.0'
    """
    if address < 0:
        raise ValueError("address must be non-negative")
    value = base + address
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))

