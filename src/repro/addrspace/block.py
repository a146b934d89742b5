"""Aligned power-of-two address blocks (binary buddies).

A block of size ``2^k`` starts at a multiple of ``2^k``.  Splitting
yields its two buddies; two buddies merge back into their parent.  This
is the block algebra behind the paper's IPSpace halving on cluster-head
configuration and behind the Buddy baseline [2].
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Tuple


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

    def contains(self, address: int) -> bool:
        return self.start <= address < self.end

    def addresses(self) -> Iterator[int]:
        return iter(range(self.start, self.end))

    def split(self) -> Tuple["Block", "Block"]:
        """Split into (lower, upper) buddies."""
        if self.size == 1:
            raise ValueError("cannot split a unit block")
        half = self.size // 2
        return Block(self.start, half), Block(self.start + half, half)

    def buddy(self) -> "Block":
        """The sibling block this one merges with."""
        if self.start % (self.size * 2) == 0:
            return Block(self.start + self.size, self.size)
        return Block(self.start - self.size, self.size)

    def is_buddy_of(self, other: "Block") -> bool:
        return self.size == other.size and other == self.buddy()

    def merge(self, other: "Block") -> "Block":
        """Merge with a buddy into the parent block."""
        if not self.is_buddy_of(other):
            raise ValueError(f"{self} and {other} are not buddies")
        return Block(min(self.start, other.start), self.size * 2)

    def __repr__(self) -> str:
        return f"Block[{self.start},{self.end})"
