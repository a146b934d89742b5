"""Timestamped per-address records.

Section II-C: "Each copy of an IP address is associated with a time
stamp which is equal to zero initially and is incrementally increased
each time the copy is updated."  The latest timestamp wins when quorum
votes disagree.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class AddressStatus(enum.Enum):
    FREE = "free"
    ASSIGNED = "assigned"


#: One record on the wire: ``(address, timestamp, status value, holder)``.
LedgerRow = Tuple[int, int, str, Optional[int]]


@dataclasses.dataclass
class AddressRecord:
    """One replica's view of one address."""

    status: AddressStatus = AddressStatus.FREE
    timestamp: int = 0
    holder: Optional[int] = None  # node id currently holding the address

    def newer_than(self, other: "AddressRecord") -> bool:
        return self.timestamp > other.timestamp

    def copy(self) -> "AddressRecord":
        return AddressRecord(self.status, self.timestamp, self.holder)


class AddressLedger:
    """A versioned map ``address -> AddressRecord``.

    Both the authoritative copy held by an allocator and the replicas
    held by its QDSet are ledgers; replicas converge by keeping the
    record with the latest timestamp (:meth:`merge`).
    """

    def __init__(self) -> None:
        self._records: Dict[int, AddressRecord] = {}

    def get(self, address: int) -> AddressRecord:
        record = self._records.get(address)
        if record is None:
            record = AddressRecord()
            self._records[address] = record
        return record

    def peek(self, address: int) -> Optional[AddressRecord]:
        return self._records.get(address)

    def mark_assigned(self, address: int, holder: Optional[int]) -> AddressRecord:
        """Version-bump the record to ASSIGNED."""
        record = self.get(address)
        record.status = AddressStatus.ASSIGNED
        record.holder = holder
        record.timestamp += 1
        return record

    def mark_free(self, address: int) -> AddressRecord:
        """Version-bump the record to FREE."""
        record = self.get(address)
        record.status = AddressStatus.FREE
        record.holder = None
        record.timestamp += 1
        return record

    def bulk_assign(
        self, assignments: Iterable[Tuple[int, Optional[int]]]
    ) -> None:
        """Batch :meth:`mark_assigned` over ``(address, holder)`` pairs.

        Same records, same timestamps — fresh addresses go straight to
        ``ASSIGNED`` at timestamp 1 without the intermediate default
        record that :meth:`mark_assigned` would allocate and mutate, so
        bulk bootstrap paths can seed a whole ledger in one pass.
        """
        records = self._records
        for address, holder in assignments:
            record = records.get(address)
            if record is None:
                records[address] = AddressRecord(
                    AddressStatus.ASSIGNED, 1, holder)
            else:
                record.status = AddressStatus.ASSIGNED
                record.holder = holder
                record.timestamp += 1

    def apply(self, address: int, record: AddressRecord) -> bool:
        """Install ``record`` if it is newer than the local copy."""
        local = self._records.get(address)
        if local is None or record.timestamp > local.timestamp:
            self._records[address] = record.copy()
            return True
        return False

    def merge(self, other: "AddressLedger") -> int:
        """Pull every newer record from ``other``; returns records updated."""
        updated = 0
        for address, record in other.items():
            if self.apply(address, record):
                updated += 1
        return updated

    def items(self) -> Iterator[Tuple[int, AddressRecord]]:
        return iter(self._records.items())

    def rows(self) -> List[LedgerRow]:
        """Every record as a ``(address, timestamp, status, holder)``
        row, the shape replica snapshots and handoffs carry."""
        return [(address, record.timestamp, record.status.value,
                 record.holder)
                for address, record in self._records.items()]

    def apply_rows(self, rows: Iterable[LedgerRow]) -> None:
        """:meth:`apply` every row of :meth:`rows` output."""
        for address, timestamp, status, holder in rows:
            self.apply(address, AddressRecord(AddressStatus(status),
                                              timestamp, holder))

    def assigned_addresses(self) -> Iterator[int]:
        return (
            a for a, r in self._records.items()
            if r.status is AddressStatus.ASSIGNED
        )

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, address: int) -> bool:
        return address in self._records
