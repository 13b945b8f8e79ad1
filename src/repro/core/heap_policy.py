"""The value-based policies' shared base: one priority queue, one L.

Paper Section 3 describes LFU-DA, GDS and GD* as one scheme: a priority
queue on H(p) = L + u(p) whose offset L — the *inflation* — is the key
of the last victim, so a document touched afterwards starts above
everything not touched since.  The members differ only in the base
value u(p): f for LFU-DA, c/s for GDS, f·c/s for GDSF, (f·c/s)^(1/β)
for GD*.

:class:`HeapPolicy` *is* the queue — an
:class:`~repro.structures.addressable_heap.AddressableHeap` of the
resident entries — and the whole
:class:`~repro.core.policy.ReplacementPolicy` protocol, so a member says
only what its key is; LFU, SIZE, LRU-K and the Belady bound sit directly
on it.  :class:`GreedyDualPolicy` adds L, the optional cost model and
the engine's cost hint, for LFU-DA, GDS, GDSF, GD*, typed GD* and
Landlord.  :data:`HEAP_KERNEL` names the members whose whole scheme is
``L + u(p)``: each defines u once, as a function its ``_key`` and the
columnar engine's heap replay
(:func:`repro.simulation.vectorized.replay_heap`) both call.
"""

from __future__ import annotations

from abc import abstractmethod
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Optional

from repro.core.cost import CostModel
from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.structures.addressable_heap import _SLACK, AddressableHeap


#: Exact class -> base value ``u(frequency, cost, size)`` of the
#: Greedy-Dual members :func:`repro.simulation.vectorized.replay_heap`
#: replays (GD*'s also takes β).  Keyed by exact class, so a subclass,
#: which may key differently, is not replayed.  Filled by
#: :func:`heap_kernel` as each member's module is imported.
HEAP_KERNEL: Dict[type, Callable[..., float]] = {}


def heap_kernel(base_value: Callable[..., float]):
    """Class decorator: the heap replay takes the class, keying with
    ``inflation + base_value(...)`` as the class's ``_key`` does."""
    def declare(cls):
        HEAP_KERNEL[cls] = base_value
        return cls
    return declare


class HeapPolicy(AddressableHeap, ReplacementPolicy):
    """Evicts its own minimum-key entry; ties leave in the order their
    keys were set.  ``on_admit`` / ``on_hit`` are the structure's
    ``push`` / ``update_key`` written out around one ``_key`` call, so a
    member keeps any per-entry state beside its key up to date in
    ``_key``; ``pop_victim`` and ``remove`` clear ``policy_data``."""

    @abstractmethod
    def _key(self, entry: CacheEntry) -> Any:
        """Heap key of ``entry`` as of the reference being processed;
        on a hit the entry's previous tuple is still the live one."""

    def on_admit(self, entry: CacheEntry) -> None:
        live = self._live
        if entry in live:
            raise KeyError(f"item already in heap: {entry!r}")
        item = (self._key(entry), next(self._counter), entry)
        heappush(self._heap, item)
        live[entry] = item

    def on_hit(self, entry: CacheEntry) -> None:
        live = self._live
        if entry not in live:
            raise KeyError(entry)
        item = (self._key(entry), next(self._counter), entry)
        heap = self._heap
        heappush(heap, item)
        live[entry] = item
        if len(heap) > 2 * len(live) + _SLACK:
            self._compact()

    def peek_victim(self) -> CacheEntry:
        return self.peek()[0]

    def pop_victim(self) -> CacheEntry:
        entry = self.pop()[0]
        entry.policy_data = None
        return entry

    def remove(self, entry: CacheEntry) -> None:
        super().remove(entry)
        entry.policy_data = None

    def h_value(self, entry: CacheEntry) -> Any:
        """Current key of a resident entry (diagnostics)."""
        return self.key_of(entry)


class GreedyDualPolicy(HeapPolicy):
    """A :class:`HeapPolicy` whose keys are ``inflation + u(p)``.

    :attr:`inflation` (L) is the key of the last victim, added whenever
    a key is (re)set: the O(log n) realization of reducing every H by
    H_min at each eviction (:mod:`repro.core.gds`).  Keys only grow, so
    L is monotone non-decreasing.  ``remove`` leaves it alone: an
    invalidated document was not evicted for being the least valuable.
    """

    #: c(p) of the cost-aware members; None for LFU-DA, the paper's
    #: fixed-cost/fixed-size member.
    cost_model: Optional[CostModel] = None

    #: Per-reference cost precomputed by the columnar engine
    #: (:meth:`repro.simulation.engine.CacheCell.process_chunk_hinted`,
    #: for the cells the heap replay does not take: typed GD*, Landlord
    #: and occupancy-sampling cells).
    #: When set, ``_key`` consumes it instead of calling the cost model.
    #: Sound because keys are computed only from on_admit/on_hit, whose
    #: entry size always equals the current reference's size.  Only the
    #: cost term is hinted: ``f · c / s`` keeps its left-to-right float
    #: evaluation order, so the key is bit-identical.
    _hint_cost = None

    def __init__(self):
        super().__init__()
        self.inflation = 0.0

    def pop_victim(self) -> CacheEntry:
        heap, live = self._heap, self._live  # the structure's lazy pop
        while heap:
            item = heappop(heap)
            entry = item[2]
            if live.get(entry) is item:
                del live[entry]
                # Aging: the untouched stay below future H values.
                self.inflation = item[0]
                entry.policy_data = None
                return entry
        raise IndexError("pop from empty heap")

    def clear(self) -> None:
        super().clear()
        self.inflation = 0.0
