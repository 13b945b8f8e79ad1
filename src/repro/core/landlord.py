"""Landlord (Young, 1998): the general rent-based Greedy-Dual family.

Every resident document holds *credit*.  On admission a document
receives credit equal to its retrieval cost c(p).  To make room, the
landlord charges every resident document rent proportional to its size
— ``delta = min(credit(q) / size(q))`` per byte — and evicts a document
whose credit reaches zero.  On a hit, credit is refreshed back toward
c(p) by a factor ``refresh``.

With ``refresh = 1`` and per-document cost models this generalizes
Greedy-Dual-Size (GDS is Landlord where credit is always fully
restored); with ``refresh = 0`` hits confer no benefit and the scheme
degenerates toward cost-aware FIFO.  Landlord is k-competitive like
GDS.  The implementation uses the same global-offset trick as GDS:
instead of charging rent to every document (O(n)), track rent-per-byte
paid so far (the family's ``inflation``) and store each document's
*expiry level* ``inflation + credit/size`` in an addressable heap.
Evicting the minimum-expiry document raises the level to that expiry:
rent is charged globally, and the credit of every other document
shrinks implicitly.
"""

from __future__ import annotations

from repro.core.cost import ConstantCost, CostModel
from repro.core.heap_policy import GreedyDualPolicy
from repro.core.policy import CacheEntry
from repro.errors import ConfigurationError


class LandlordPolicy(GreedyDualPolicy):
    """Landlord with lazy rent collection."""

    def __init__(self, cost_model: CostModel = None, refresh: float = 1.0):
        if not 0.0 <= refresh <= 1.0:
            raise ConfigurationError("refresh must be in [0, 1]")
        super().__init__()
        self.cost_model = cost_model or ConstantCost()
        self.refresh = refresh
        self.name = f"landlord({self.cost_model.tag.lower()})"

    def _key(self, entry: CacheEntry) -> float:
        # Expiry level at full credit c(p): an admission's key.
        size = entry.size or 1
        cost = self._hint_cost
        if cost is None:
            cost = self.cost_model.cost(size)
        target = self.inflation + cost / size
        live = self._live.get(entry)
        if live is None:
            return target
        # A hit refreshes credit toward full: the new expiry
        # interpolates between the current one and the full-credit level.
        current = live[0]
        if current < self.inflation:
            current = self.inflation
        return current + (target - current) * self.refresh

    def credit_of(self, entry: CacheEntry) -> float:
        """Remaining credit of a resident entry (diagnostics)."""
        expiry = self.key_of(entry)
        return max(expiry - self.inflation, 0.0) * max(entry.size, 1)
