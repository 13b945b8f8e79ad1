"""SIZE baseline: evict the largest resident document first.

From Williams et al. and the Arlitt et al. comparison set.  Maximizes
the *number* of resident documents, so it can post high hit rates on
mixes dominated by small documents, at the price of terrible byte hit
rates — a useful extreme against which to read GDS(1)'s behaviour.
"""

from __future__ import annotations

from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.structures.addressable_heap import AddressableHeap


class SizePolicy(ReplacementPolicy):
    """Min-heap on negative size (largest evicts first); ties FIFO."""

    name = "size"

    def __init__(self):
        self._heap: AddressableHeap = AddressableHeap()

    def __len__(self) -> int:
        return len(self._heap)

    def on_admit(self, entry: CacheEntry) -> None:
        self._heap.push(entry, -entry.size)

    def on_hit(self, entry: CacheEntry) -> None:
        # Size does not change on a hit; nothing to reorder.
        pass

    def peek_victim(self) -> CacheEntry:
        return self._heap.peek()[0]

    def pop_victim(self) -> CacheEntry:
        entry, _ = self._heap.pop()
        return entry

    def remove(self, entry: CacheEntry) -> None:
        self._heap.remove(entry)

    def clear(self) -> None:
        self._heap.clear()
