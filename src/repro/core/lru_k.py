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

    def _key(self, entry: CacheEntry) -> tuple:
        # Once per reference: append it to the entry's last-K history.
        self._clock += 1
        history: Deque[int] = entry.policy_data
        if history is None:
            history = entry.policy_data = deque(maxlen=self.k)
        history.append(self._clock)
        if len(history) < self.k:
            return (_NO_HISTORY, history[-1])
        return (history[0], history[-1])

    def clear(self) -> None:
        super().clear()
        self._clock = 0
