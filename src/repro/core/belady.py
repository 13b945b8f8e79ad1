"""Offline Belady-style bound: evict the farthest-next-use document.

Belady's MIN is optimal for unit-size objects; for variable-size web
documents farthest-next-use is no longer provably optimal, but it is the
standard clairvoyant upper-bound companion in cache studies, and we use
it the same way: as a ceiling no online policy should exceed by much.

Usage requires future knowledge::

    next_uses = compute_next_uses(trace)
    policy = BeladyPolicy(next_uses)

and the cache must then be driven with exactly that request sequence:
the policy reads the cache clock (one tick per reference) to index into
the precomputed next-use table.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.errors import ConfigurationError
from repro.structures.addressable_heap import AddressableHeap
from repro.types import Request

#: Sentinel next-use for "never referenced again".
NEVER = math.inf


def compute_next_uses(requests: Sequence[Request]) -> List[float]:
    """For each request index, the index of the next request to the same
    URL (or :data:`NEVER`)."""
    next_uses: List[float] = [NEVER] * len(requests)
    last_seen: Dict[str, int] = {}
    for index in range(len(requests) - 1, -1, -1):
        url = requests[index].url
        next_uses[index] = last_seen.get(url, NEVER)
        last_seen[url] = index
    return next_uses


class BeladyPolicy(ReplacementPolicy):
    """Clairvoyant farthest-next-use eviction.

    Heap key is (−next_use, −size): among documents never used again,
    the largest goes first, freeing the most space per eviction.
    """

    name = "belady"

    def __init__(self, next_uses: Sequence[float]):
        if not len(next_uses):
            raise ConfigurationError("next_uses must not be empty")
        self._next_uses = next_uses
        self._heap: AddressableHeap = AddressableHeap()
        self.cache = None

    def __len__(self) -> int:
        return len(self._heap)

    def _current_next_use(self) -> float:
        if self.cache is None:
            raise ConfigurationError(
                "BeladyPolicy must be attached to a cache")
        index = self.cache.clock - 1  # clock ticks before policy hooks run
        if index < 0 or index >= len(self._next_uses):
            raise ConfigurationError(
                f"cache clock {self.cache.clock} outside the precomputed "
                f"trace of length {len(self._next_uses)}; Belady must be "
                "driven with exactly the trace it was computed from")
        return self._next_uses[index]

    def _key(self, entry: CacheEntry, next_use: float) -> tuple:
        return (-next_use, -entry.size)

    def on_admit(self, entry: CacheEntry) -> None:
        self._heap.push(entry, self._key(entry, self._current_next_use()))

    def on_hit(self, entry: CacheEntry) -> None:
        self._heap.update_key(entry,
                              self._key(entry, self._current_next_use()))

    def peek_victim(self) -> CacheEntry:
        return self._heap.peek()[0]

    def pop_victim(self) -> CacheEntry:
        entry, _ = self._heap.pop()
        return entry

    def remove(self, entry: CacheEntry) -> None:
        self._heap.remove(entry)

    def clear(self) -> None:
        self._heap.clear()
