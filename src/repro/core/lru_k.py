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

from repro.core.heap_policy import HeapPolicy
from repro.core.policy import CacheEntry
from repro.errors import ConfigurationError

#: Key component marking "fewer than K references yet".
_NO_HISTORY = -1


class LRUKPolicy(HeapPolicy):
    """Min-heap on (K-th-last reference time, last reference time)."""

    name = "lru-k"

    def __init__(self, k: int = 2):
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        super().__init__()
        self.k = k
        self.name = f"lru-{k}" if k != 2 else "lru-2"
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _key(self, entry: CacheEntry) -> tuple:
        history: Deque[int] = entry.policy_data
        if len(history) < self.k:
            return (_NO_HISTORY, history[-1])
        return (history[0], history[-1])

    def on_admit(self, entry: CacheEntry) -> None:
        history: Deque[int] = deque(maxlen=self.k)
        history.append(self._tick())
        entry.policy_data = history
        super().on_admit(entry)

    def on_hit(self, entry: CacheEntry) -> None:
        entry.policy_data.append(self._tick())
        super().on_hit(entry)

    def pop_victim(self) -> CacheEntry:
        entry = super().pop_victim()
        entry.policy_data = None
        return entry

    def remove(self, entry: CacheEntry) -> None:
        super().remove(entry)
        entry.policy_data = None

    def clear(self) -> None:
        super().clear()
        self._clock = 0
