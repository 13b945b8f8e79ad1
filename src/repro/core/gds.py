"""Greedy-Dual-Size (Cao & Irani, paper Section 3).

Each resident document p carries a value H(p).  On admission or hit,
H(p) = L + c(p)/s(p), where c is the cost model, s the size, and L the
*inflation*: conceptually, GDS reduces all H values by H_min at every
eviction; the standard O(log n) realization instead keeps L equal to the
H value of the last evicted document and adds it when (re)setting H, so
no mass update ever happens.  The victim is always the minimum-H
document.

GDS is online-optimal with respect to its cost function.  Under constant
cost, c/s = 1/s: small documents are precious, large ones are evicted
readily — high hit rate, poor byte hit rate on multimedia.  Its stated
weakness, motivating GD*, is ignoring frequency.
"""

from __future__ import annotations

from repro.core.cost import ConstantCost, CostModel
from repro.core.heap_policy import GreedyDualPolicy, heap_kernel
from repro.core.policy import CacheEntry


def base_value(frequency: int, cost: float, size: int) -> float:
    """u(p) = c/s of a document of (floored) ``size``; frequency plays
    no part."""
    return cost / size


@heap_kernel(base_value)
class GDSPolicy(GreedyDualPolicy):
    """Greedy-Dual-Size with inflation-based aging."""

    def __init__(self, cost_model: CostModel = None):
        super().__init__()
        self.cost_model = cost_model or ConstantCost()
        self.name = f"gds({self.cost_model.tag.lower()})"

    def _key(self, entry: CacheEntry) -> float:
        # On a hit this restores the document's full (inflated) value.
        # Clamp zero-size documents consistently: the same floored
        # size feeds both the cost model and the denominator (sizes
        # are never negative, so ``or 1`` is ``max(size, 1)``).
        size = entry.size or 1
        cost = self._hint_cost
        if cost is None:
            cost = self.cost_model.cost(size)
        return self.inflation + base_value(entry.frequency, cost, size)
