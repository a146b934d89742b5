"""IP address space management.

Provides 32-bit address arithmetic, range sets (every set of addresses),
power-of-two *buddy* address blocks (the unit of IPSpace splitting when
a new cluster head is configured: "the allocator assigns half its IP
block", Section IV-B), allocation pools, and timestamped per-address
records — the versioned state that quorum voting keeps consistent.
"""

from repro.addrspace.address import format_ip
from repro.addrspace.block import Block
from repro.addrspace.pool import AddressPool
from repro.addrspace.ranges import RangeSet
from repro.addrspace.records import AddressLedger, AddressRecord, AddressStatus

__all__ = [
    "format_ip",
    "Block",
    "AddressPool",
    "RangeSet",
    "AddressLedger",
    "AddressRecord",
    "AddressStatus",
]
