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

from repro.core.heap_policy import HeapPolicy
from repro.core.policy import CacheEntry
from repro.errors import ConfigurationError
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


class BeladyPolicy(HeapPolicy):
    """Clairvoyant farthest-next-use eviction.

    Heap key is (−next_use, −size): among documents never used again,
    the largest goes first, freeing the most space per eviction.
    """

    name = "belady"

    def __init__(self, next_uses: Sequence[float]):
        if not len(next_uses):
            raise ConfigurationError("next_uses must not be empty")
        super().__init__()
        self._next_uses = next_uses
        self.cache = None

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

    def _key(self, entry: CacheEntry) -> tuple:
        return (-self._current_next_use(), -entry.size)
