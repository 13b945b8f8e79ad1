"""SIZE baseline: evict the largest resident document first.

From Williams et al. and the Arlitt et al. comparison set.  Maximizes
the *number* of resident documents, so it can post high hit rates on
mixes dominated by small documents, at the price of terrible byte hit
rates — a useful extreme against which to read GDS(1)'s behaviour.
"""

from __future__ import annotations

from repro.core.heap_policy import HeapPolicy
from repro.core.policy import CacheEntry


class SizePolicy(HeapPolicy):
    """Min-heap on negative size (largest evicts first); ties FIFO."""

    name = "size"

    def _key(self, entry: CacheEntry) -> int:
        return -entry.size

    def on_hit(self, entry: CacheEntry) -> None:
        # Size does not change on a hit; nothing to reorder.
        pass
