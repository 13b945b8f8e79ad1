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
paid so far (``rent_level``) and store each document's *expiry level*
``rent_level + credit/size`` in an addressable heap.
"""

from __future__ import annotations

from repro.core.cost import ConstantCost, CostModel
from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.errors import ConfigurationError
from repro.structures.addressable_heap import AddressableHeap


class LandlordPolicy(ReplacementPolicy):
    """Landlord with lazy rent collection."""

    def __init__(self, cost_model: CostModel = None, refresh: float = 1.0):
        if not 0.0 <= refresh <= 1.0:
            raise ConfigurationError("refresh must be in [0, 1]")
        self.cost_model = cost_model or ConstantCost()
        self.refresh = refresh
        self.name = f"landlord({self.cost_model.tag.lower()})"
        self._heap: AddressableHeap = AddressableHeap()
        self.rent_level = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def _full_expiry(self, entry: CacheEntry) -> float:
        size = max(entry.size, 1)
        return self.rent_level + self.cost_model.cost(size) / size

    def on_admit(self, entry: CacheEntry) -> None:
        self._heap.push(entry, self._full_expiry(entry))

    def on_hit(self, entry: CacheEntry) -> None:
        # Refresh credit toward full: new expiry interpolates between
        # the current one and the full-credit level.
        current = self._heap.key_of(entry)
        if current < self.rent_level:
            current = self.rent_level
        target = self._full_expiry(entry)
        refreshed = current + (target - current) * self.refresh
        self._heap.update_key(entry, refreshed)

    def peek_victim(self) -> CacheEntry:
        return self._heap.peek()[0]

    def pop_victim(self) -> CacheEntry:
        entry, expiry = self._heap.pop()
        # Charge rent globally up to the victim's expiry level; credit
        # of every other document shrinks implicitly.
        if expiry > self.rent_level:
            self.rent_level = expiry
        return entry

    def remove(self, entry: CacheEntry) -> None:
        self._heap.remove(entry)

    def clear(self) -> None:
        self._heap.clear()
        self.rent_level = 0.0

    def credit_of(self, entry: CacheEntry) -> float:
        """Remaining credit of a resident entry (diagnostics)."""
        expiry = self._heap.key_of(entry)
        return max(expiry - self.rent_level, 0.0) * max(entry.size, 1)
