"""LRU-K (O'Neil, O'Neil & Weikum): recency of the K-th last reference.

Evicts the document whose K-th most recent reference is oldest; entries
with fewer than K references sort before all fully-observed ones (their
K-th reference is treated as −∞), ordered among themselves by their last
reference.  K=2 is the classic scan-resistant variant.  Included as an
extension baseline bridging LRU (K=1) and frequency-based schemes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.errors import ConfigurationError
from repro.structures.addressable_heap import AddressableHeap

#: Key component marking "fewer than K references yet".
_NO_HISTORY = -1


class LRUKPolicy(ReplacementPolicy):
    """Min-heap on (K-th-last reference time, last reference time)."""

    name = "lru-k"

    def __init__(self, k: int = 2):
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        self.k = k
        self.name = f"lru-{k}" if k != 2 else "lru-2"
        self._heap: AddressableHeap = AddressableHeap()
        self._clock = 0

    def __len__(self) -> int:
        return len(self._heap)

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _key(self, history: Deque[int]) -> tuple:
        if len(history) < self.k:
            return (_NO_HISTORY, history[-1])
        return (history[0], history[-1])

    def on_admit(self, entry: CacheEntry) -> None:
        history: Deque[int] = deque(maxlen=self.k)
        history.append(self._tick())
        entry.policy_data = history
        self._heap.push(entry, self._key(history))

    def on_hit(self, entry: CacheEntry) -> None:
        history: Deque[int] = entry.policy_data
        history.append(self._tick())
        self._heap.update_key(entry, self._key(history))

    def peek_victim(self) -> CacheEntry:
        return self._heap.peek()[0]

    def pop_victim(self) -> CacheEntry:
        entry, _ = self._heap.pop()
        entry.policy_data = None
        return entry

    def remove(self, entry: CacheEntry) -> None:
        self._heap.remove(entry)
        entry.policy_data = None

    def clear(self) -> None:
        self._heap.clear()
        self._clock = 0
