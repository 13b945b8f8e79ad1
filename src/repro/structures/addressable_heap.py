"""Addressable min-heap: C ``heapq`` plus lazy deletion.

A priority queue over ``(key, item)`` pairs in which a specific item's
key can be updated (raised or lowered) or the item removed in amortised
O(log n).  Entries are immutable ``(key, seq, item)`` tuples on a
:mod:`heapq` list, and one dict maps each item to its *live* tuple.
Re-keying never sifts: it pushes a fresh tuple and repoints the dict;
removing just drops the dict entry.  A tuple in the list is live iff it
*is* the tuple the dict holds for its item; every other tuple is stale
and is discarded when it surfaces at the top, or by a rebuild as soon as
a re-key or removal leaves the list longer than twice the live count
plus :data:`_SLACK` — so memory stays O(n) and a re-key amortised
O(log n) however long a run goes without popping (a pop only ever
shortens the list).

Ties are broken by ``seq``, a single insertion counter that every push
and every re-key draws from.  ``(key, seq)`` is therefore a strict total
order, the minimum is unique, and the pop sequence does not depend on
how the list happens to be laid out — which makes every policy built on
this structure deterministic.

This single structure is the base of every value-based replacement
policy (:class:`repro.core.heap_policy.HeapPolicy`), whose hooks write
``push``, ``update_key`` and ``pop`` out: a rule changed here changes
there too, and ``tests/core/test_heap_policy.py`` holds the two equal.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Dict, Generic, Hashable, Iterator, Tuple, TypeVar

K = TypeVar("K")  # keys must be mutually comparable

#: A re-key or removal may leave the list this many tuples longer than
#: twice the live count before it is rebuilt; keeps tiny heaps from
#: rebuilding constantly.
_SLACK = 64


class AddressableHeap(Generic[K]):
    """Min-heap keyed by ``(key, sequence)`` with item addressing."""

    __slots__ = ("_heap", "_live", "_counter")

    def __init__(self):
        # (key, seq, item) tuples in heapq order; seq breaks ties FIFO
        # and is unique, so comparisons never reach the item.
        self._heap: list = []
        self._live: Dict[Hashable, tuple] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._live

    def __iter__(self) -> Iterator[Hashable]:
        """Iterate items in arbitrary order."""
        return iter(self._live)

    def push(self, item: Hashable, key: K) -> None:
        """Insert an item.  Raises KeyError if the item is already present."""
        live = self._live
        if item in live:
            raise KeyError(f"item already in heap: {item!r}")
        entry = (key, next(self._counter), item)
        heappush(self._heap, entry)
        live[item] = entry

    def key_of(self, item: Hashable) -> K:
        """Current key of an item.  Raises KeyError if absent."""
        return self._live[item][0]

    def peek(self) -> Tuple[Hashable, K]:
        """The (item, key) pair with the minimum key, without removing it."""
        heap, live = self._heap, self._live
        while heap:
            entry = heap[0]
            item = entry[2]
            if live.get(item) is entry:
                return item, entry[0]
            heappop(heap)
        raise IndexError("peek at empty heap")

    def pop(self) -> Tuple[Hashable, K]:
        """Remove and return the (item, key) pair with the minimum key."""
        heap, live = self._heap, self._live
        while heap:
            entry = heappop(heap)
            item = entry[2]
            if live.get(item) is entry:
                del live[item]
                return item, entry[0]
        raise IndexError("pop from empty heap")

    def remove(self, item: Hashable) -> K:
        """Remove an arbitrary item; returns its key."""
        live = self._live
        key = live.pop(item)[0]
        if len(self._heap) > 2 * len(live) + _SLACK:
            self._compact()
        return key

    def update_key(self, item: Hashable, key: K) -> None:
        """Set an item's key in amortised O(log n).

        The new key is also assigned a fresh tie-break sequence number, so
        re-keyed items sort after existing equal keys (matching the
        "refreshed documents are newer" semantics the Greedy-Dual policies
        expect).
        """
        live = self._live
        if item not in live:
            raise KeyError(item)
        entry = (key, next(self._counter), item)
        heap = self._heap
        heappush(heap, entry)
        live[item] = entry
        if len(heap) > 2 * len(live) + _SLACK:
            self._compact()

    def clear(self) -> None:
        self._heap.clear()
        self._live.clear()

    def _compact(self) -> None:
        """Rebuild the list from the live tuples alone."""
        self._heap[:] = self._live.values()
        heapify(self._heap)

    # ----- debugging aids ----------------------------------------------

    def check_invariants(self) -> None:
        """Assert heap order and that each live tuple is listed (tests only)."""
        heap, live = self._heap, self._live
        for pos in range(1, len(heap)):
            assert not heap[pos] < heap[(pos - 1) >> 1], "heap order violated"
        present = {id(entry) for entry in heap}
        assert len(present) == len(heap), "tuple listed twice"
        for item, entry in live.items():
            assert entry[2] == item, "live tuple filed under another item"
            assert id(entry) in present, "live tuple missing from the list"
