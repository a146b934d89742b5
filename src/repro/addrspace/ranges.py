"""Sets of addresses as sorted, disjoint half-open ranges.

A :class:`RangeSet` is the one representation of "a set of addresses"
in this package: a pool's free space and its allocated addresses, and
a replica's copy of both.  Ranges are kept maximal (no two touch), so
the set has exactly one range list, and :meth:`RangeSet.blocks` derives
the buddy decomposition — the maximal aligned power-of-two blocks —
on demand rather than storing it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.addrspace.block import Block

Range = Tuple[int, int]


class RangeSet:
    """A set of integers stored as sorted, disjoint, non-touching
    ``[start, end)`` ranges (parallel ``_starts`` / ``_ends`` lists)."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, ranges: Iterable[Range] = ()) -> None:
        self._starts: List[int] = []
        self._ends: List[int] = []
        for start, end in ranges:
            self.add(start, end)

    def add(self, start: int, end: int) -> None:
        """Add ``[start, end)``, merging every range it overlaps or touches."""
        if start >= end:
            return
        starts, ends = self._starts, self._ends
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = [start]
        ends[lo:hi] = [end]

    def remove(self, start: int, end: int) -> None:
        """Remove ``[start, end)``; addresses not in the set are ignored."""
        if start >= end:
            return
        starts, ends = self._starts, self._ends
        lo = bisect_right(ends, start)
        hi = bisect_left(starts, end)
        if lo >= hi:
            return
        kept_starts: List[int] = []
        kept_ends: List[int] = []
        if starts[lo] < start:
            kept_starts.append(starts[lo])
            kept_ends.append(start)
        if ends[hi - 1] > end:
            kept_starts.append(end)
            kept_ends.append(ends[hi - 1])
        starts[lo:hi] = kept_starts
        ends[lo:hi] = kept_ends

    def first(self) -> Optional[int]:
        """The lowest address, or ``None`` when the set is empty."""
        return self._starts[0] if self._starts else None

    def ranges(self, start: Optional[int] = None,
               end: Optional[int] = None) -> List[Range]:
        """The ranges, ascending; with ``start``/``end``, only their
        overlap with ``[start, end)``, clipped to it."""
        if start is None or end is None:
            return list(zip(self._starts, self._ends))
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end)
        return [(max(s, start), min(e, end))
                for s, e in zip(self._starts[lo:hi], self._ends[lo:hi])]

    def blocks(self) -> Iterator[Block]:
        """The buddy decomposition: maximal aligned blocks, ascending."""
        for start, end in zip(self._starts, self._ends):
            while start < end:
                size = 1 << ((end - start).bit_length() - 1)
                if start:
                    size = min(size, start & -start)
                yield Block(start, size)
                start += size

    def __contains__(self, address: int) -> bool:
        i = bisect_right(self._starts, address) - 1
        return i >= 0 and address < self._ends[i]

    def __iter__(self) -> Iterator[int]:
        for start, end in zip(self._starts, self._ends):
            yield from range(start, end)

    def __len__(self) -> int:
        return sum(self._ends) - sum(self._starts)

    def __repr__(self) -> str:
        body = ", ".join(f"[{s},{e})" for s, e in self.ranges())
        return f"RangeSet({body})"
