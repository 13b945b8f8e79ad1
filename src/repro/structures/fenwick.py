"""Fenwick tree (binary indexed tree) over integer positions.

The scalar form of the LRU stack-distance recurrence: each trace
position holds a 0/1 flag ("is this the most recent reference to its
document"), and the stack distance of a re-reference is the number of
set flags between the previous reference and now — a prefix-sum query.
Both update and query are O(log n).  The library computes stack
distances with the array kernel
:func:`repro.simulation.vectorized.weighted_stack_distances`; this tree
is the recurrence its tests check it against.
"""

from __future__ import annotations

from typing import List


class FenwickTree:
    """Prefix sums over ``size`` integer cells (0-indexed externally)."""

    __slots__ = ("_tree", "size")

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self._tree: List[int] = [0] * (size + 1)

    def add(self, index: int, delta: int = 1) -> None:
        """Add ``delta`` to the cell at ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range [0, {self.size})")
        position = index + 1
        tree = self._tree
        while position <= self.size:
            tree[position] += delta
            position += position & (-position)

    def prefix_sum(self, index: int) -> int:
        """Sum of cells [0, index].  index = -1 gives 0."""
        if index >= self.size:
            index = self.size - 1
        total = 0
        position = index + 1
        tree = self._tree
        while position > 0:
            total += tree[position]
            position -= position & (-position)
        return total

    def range_sum(self, lo: int, hi: int) -> int:
        """Sum of cells [lo, hi] inclusive."""
        if hi < lo:
            return 0
        return self.prefix_sum(hi) - self.prefix_sum(lo - 1)

    def total(self) -> int:
        return self.prefix_sum(self.size - 1)
