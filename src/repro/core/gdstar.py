"""Greedy-Dual* (Jin & Bestavros, paper Section 3).

GD* captures *both* sources of temporal locality:

* long-term popularity, through the in-cache reference count f(p) in the
  base value — like GDSF;
* short-term temporal correlation, through the aging exponent β:

      H(p) = L + ( f(p) · c(p) / s(p) ) ^ (1/β)

With β = 1 this is exactly GDSF; as β shrinks (weak correlation,
popularity-dominated workloads) the exponent 1/β grows and the utility
spread between documents widens, making frequency/cost/size differences
dominate recency (the inflation L).  β is estimated online from the
reuse distances of resident documents
(:class:`~repro.core.beta_estimator.OnlineBetaEstimator`), which is what
makes the policy adaptive; pass a
:class:`~repro.core.beta_estimator.FixedBetaEstimator` to pin it.

The paper's multimedia observation falls out of the formula: for an
infrequently accessed large document, f·c/s is tiny, and raising a tiny
number to the power 1/β ≥ 1 makes it tinier still — so GD*(1) discards
multimedia aggressively and posts the worst multimedia hit rate of all
four schemes.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.core.beta_estimator import FixedBetaEstimator, OnlineBetaEstimator
from repro.core.cost import ConstantCost, CostModel
from repro.core.heap_policy import GreedyDualPolicy, heap_kernel
from repro.core.policy import CacheEntry

Estimator = Union[OnlineBetaEstimator, FixedBetaEstimator]

#: Utilities are clamped to this ceiling before exponentiation so that
#: 1/β powers of large ratios cannot overflow a float.
_MAX_UTILITY = 1e12


def base_value(frequency: int, cost: float, size: int,
               beta: float) -> float:
    """u(p) = (f·c/s)^(1/β), the utility clamped to :data:`_MAX_UTILITY`
    first and an overflowing power replaced by its square."""
    utility = frequency * cost / size
    if utility > _MAX_UTILITY:
        utility = _MAX_UTILITY
    exponent = 1.0 / beta
    # Guard against overflow for utility > 1 with a large exponent.
    try:
        return utility ** exponent
    except OverflowError:
        return _MAX_UTILITY ** 2


@heap_kernel(base_value)
class GDStarPolicy(GreedyDualPolicy):
    """Greedy-Dual* with online (or fixed) β."""

    def __init__(self, cost_model: CostModel = None,
                 beta_estimator: Optional[Estimator] = None):
        super().__init__()
        self.cost_model = cost_model or ConstantCost()
        self.name = f"gd*({self.cost_model.tag.lower()})"
        self.estimator: Estimator = beta_estimator or OnlineBetaEstimator()
        self._clock = 0

    @property
    def beta(self) -> float:
        return self.estimator.beta

    def _key(self, entry: CacheEntry) -> float:
        # Once per admission and per hit: tick the clock and feed the
        # entry's reuse gap (a new entry has none) to β, then key.
        self._clock = clock = self._clock + 1
        estimator = self.estimator
        last = entry.policy_data
        if last is not None:
            estimator.observe(clock - last)
        entry.policy_data = clock   # last-reference time for reuse gaps
        size = entry.size or 1
        cost = self._hint_cost
        if cost is None:
            cost = self.cost_model.cost(size)
        return self.inflation + base_value(entry.frequency, cost, size,
                                           estimator.beta)

    def clear(self) -> None:
        super().clear()
        self._clock = 0
