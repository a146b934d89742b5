"""Aligned power-of-two address blocks (binary buddies).

A block of size ``2^k`` starts at a multiple of ``2^k``.  Blocks are
the unit in which IPSpace changes hands — the paper's halving on
cluster-head configuration and the Buddy baseline [2]; a pool derives
them from its free ranges (:meth:`repro.addrspace.ranges.RangeSet.blocks`).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclasses.dataclass(frozen=True, order=True)
class Block:
    """A half-open address range ``[start, start + size)``.

    ``size`` must be a power of two and ``start`` aligned to it.
    """

    start: int
    size: int

    def __post_init__(self) -> None:
        if not _is_power_of_two(self.size):
            raise ValueError(f"block size {self.size} is not a power of two")
        if self.start % self.size != 0:
            raise ValueError(
                f"block start {self.start} not aligned to size {self.size}"
            )
        if self.start < 0:
            raise ValueError("block start must be non-negative")

    @property
    def end(self) -> int:
        return self.start + self.size

    def addresses(self) -> Iterator[int]:
        return iter(range(self.start, self.end))

    def __repr__(self) -> str:
        return f"Block[{self.start},{self.end})"
