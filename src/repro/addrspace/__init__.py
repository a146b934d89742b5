"""IP address space management.

Provides 32-bit address arithmetic, power-of-two *buddy* address blocks
(the unit of IPSpace splitting when a new cluster head is configured:
"the allocator assigns half its IP block", Section IV-B), allocation
pools, and timestamped per-address records — the versioned state that
quorum voting keeps consistent.
"""

from repro.addrspace.address import format_ip
from repro.addrspace.block import Block
from repro.addrspace.pool import AddressPool
from repro.addrspace.records import AddressLedger, AddressRecord, AddressStatus

__all__ = [
    "format_ip",
    "Block",
    "AddressPool",
    "AddressLedger",
    "AddressRecord",
    "AddressStatus",
]
