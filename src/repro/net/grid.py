"""The spatial cell index behind the topology engine.

The grid buckets node slots into square cells whose side equals the
transmission range, so all neighbor candidates of a node live in its
3x3 cell block.  A cell's bucket is deleted when its last slot leaves,
so a long mobility run keeps no empty buckets.  Buckets hold *slots*
(see :class:`~repro.net.store.NodeStore`), which are insertion-rank
ordered by construction — the property every adjacency ordering
guarantee in :mod:`repro.net.topology` rests on.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Dict, Iterable, List, Tuple

Cell = Tuple[int, int]


class CellGrid:
    """Uniform ``cell -> [slot, ...]`` index.

    Each bucket holds its slots in ascending (rank) order: callers feed
    :meth:`rebuild` ascending slots, and :meth:`insert_ranked` keeps it.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = cell_size
        self.cells: Dict[Cell, List[int]] = {}

    def cell_of(self, x: float, y: float) -> Cell:
        size = self.cell_size
        return (int(math.floor(x / size)), int(math.floor(y / size)))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert_ranked(self, slot: int, cell: Cell) -> None:
        """Insert keeping the bucket's ascending slot (= rank) order."""
        bucket = self.cells.get(cell)
        if bucket is None:
            self.cells[cell] = [slot]
        else:
            insort(bucket, slot)

    def remove(self, slot: int, cell: Cell) -> None:
        bucket = self.cells.get(cell)
        if bucket is None:
            return
        try:
            bucket.remove(slot)
        except ValueError:
            return
        if not bucket:
            del self.cells[cell]

    def rebuild(self, placements: Iterable[Tuple[int, float, float]]) -> None:
        """Rebuild every bucket from ``(slot, x, y)`` triples.

        Feeding slots in ascending order yields rank-ordered buckets.
        """
        size = self.cell_size
        floor = math.floor
        cells: Dict[Cell, List[int]] = {}
        for slot, x, y in placements:
            cell = (int(floor(x / size)), int(floor(y / size)))
            bucket = cells.get(cell)
            if bucket is None:
                cells[cell] = [slot]
            else:
                bucket.append(slot)
        self.cells = cells

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(self, cell: Cell) -> List[int]:
        """Every slot in the 3x3 cell block around ``cell``."""
        cx, cy = cell
        cells = self.cells
        out: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = cells.get((cx + dx, cy + dy))
                if bucket:
                    out.extend(bucket)
        return out
