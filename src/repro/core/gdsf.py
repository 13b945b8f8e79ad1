"""GDSF: Greedy-Dual-Size with Frequency (Cherkasova / Arlitt et al.).

H(p) = L + f(p) · c(p) / s(p): GDS weighted by the in-cache reference
count.  This is the variant shipped in Squid, and it is exactly GD* with
β fixed at 1 — which makes it the natural ablation point between GDS
(no frequency) and GD* (frequency plus adaptive temporal-correlation
exponent).
"""

from __future__ import annotations

from repro.core.cost import ConstantCost, CostModel
from repro.core.heap_policy import GreedyDualPolicy, heap_kernel
from repro.core.policy import CacheEntry


def base_value(frequency: int, cost: float, size: int) -> float:
    """u(p) = f·c/s, evaluated left to right."""
    return frequency * cost / size


@heap_kernel(base_value)
class GDSFPolicy(GreedyDualPolicy):
    """Greedy-Dual-Size-Frequency with inflation-based aging."""

    def __init__(self, cost_model: CostModel = None):
        super().__init__()
        self.cost_model = cost_model or ConstantCost()
        self.name = f"gdsf({self.cost_model.tag.lower()})"

    def _key(self, entry: CacheEntry) -> float:
        size = entry.size or 1
        cost = self._hint_cost
        if cost is None:
            cost = self.cost_model.cost(size)
        return self.inflation + base_value(entry.frequency, cost, size)
