"""Least Frequently Used with Dynamic Aging (paper Section 3).

Frequency-based with a recency correction: every entry's heap key is
``frequency + L`` where the *cache age* L (``inflation``, as for the
rest of the family) is the key value of the most recently evicted
document.  Because L only grows, documents admitted or referenced later
start ahead of long-dead former favourites, which prevents the cache
pollution plain LFU suffers from.  Arlitt et al. showed LFU-DA achieves
high byte hit rates; the paper uses it as the frequency-based
representative under the fixed-cost/fixed-size assumption.
"""

from __future__ import annotations

from repro.core.heap_policy import GreedyDualPolicy, heap_kernel
from repro.core.policy import CacheEntry


def base_value(frequency: int, cost, size: int) -> int:
    """u(p) = f: no cost model (``cost`` is None), size plays no part."""
    return frequency


@heap_kernel(base_value)
class LFUDAPolicy(GreedyDualPolicy):
    """Min-heap on ``frequency + inflation``: Greedy-Dual with base
    value f and no cost term."""

    name = "lfu-da"

    def _key(self, entry: CacheEntry) -> float:
        return self.inflation + base_value(entry.frequency, None, entry.size)
