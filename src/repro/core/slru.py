"""Segmented LRU (Karedla, Love & Wherry, 1994).

Two LRU segments: new documents enter *probationary*; a hit promotes to
*protected*; protected overflow demotes back to the probationary MRU
end.  Victims come from the probationary LRU end first.  One bit of
frequency information (referenced-more-than-once) buys scan resistance
that plain LRU lacks, without per-document counters.

The protected segment is bounded in **bytes**, as a fraction of the
attached cache's capacity — entry-count bounds misbehave when the cache
holds only a handful of documents (the bound collapses to one entry and
promotions immediately demote the previous favourite).
"""

from __future__ import annotations

from typing import Dict

from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.errors import ConfigurationError
from repro.structures.dlist import DList

_PROBATION = 0
_PROTECTED = 1


class SLRUPolicy(ReplacementPolicy):
    """Segmented LRU with a protected-bytes bound."""

    name = "slru"

    def __init__(self, protected_fraction: float = 0.5):
        if not 0.0 < protected_fraction < 1.0:
            raise ConfigurationError(
                "protected_fraction must be in (0, 1)")
        self.protected_fraction = protected_fraction
        self._probation: DList = DList()
        self._protected: DList = DList()
        self._segments: Dict[str, int] = {}
        self._protected_bytes = 0
        self._total = 0
        self.cache = None

    def __len__(self) -> int:
        return self._total

    def _protected_limit_bytes(self) -> int:
        if self.cache is None:
            raise ConfigurationError(
                "SLRUPolicy must be attached to a cache (its protected "
                "bound is a fraction of the cache capacity)")
        return int(self.cache.capacity_bytes * self.protected_fraction)

    def on_admit(self, entry: CacheEntry) -> None:
        entry.policy_data = self._probation.push_back(entry)
        self._segments[entry.url] = _PROBATION
        self._total += 1

    def on_hit(self, entry: CacheEntry) -> None:
        if self._segments[entry.url] == _PROTECTED:
            self._protected.move_to_back(entry.policy_data)
            return
        self._probation.unlink(entry.policy_data)
        entry.policy_data = self._protected.push_back(entry)
        self._segments[entry.url] = _PROTECTED
        self._protected_bytes += entry.size
        limit = self._protected_limit_bytes()
        # Demote LRU protected entries until within bounds — but never
        # the entry just promoted.
        while (self._protected_bytes > limit
               and len(self._protected) > 1):
            demoted = self._protected.pop_front()
            self._protected_bytes -= demoted.size
            demoted.policy_data = self._probation.push_back(demoted)
            self._segments[demoted.url] = _PROBATION

    def peek_victim(self) -> CacheEntry:
        # Exactly what pop_victim takes: probation's LRU end first.
        return (self._probation or self._protected).front()

    def pop_victim(self) -> CacheEntry:
        if self._probation:
            entry = self._probation.pop_front()
        else:
            entry = self._protected.pop_front()
            self._protected_bytes -= entry.size
        del self._segments[entry.url]
        entry.policy_data = None
        self._total -= 1
        return entry

    def remove(self, entry: CacheEntry) -> None:
        if self._segments[entry.url] == _PROBATION:
            self._probation.unlink(entry.policy_data)
        else:
            self._protected.unlink(entry.policy_data)
            self._protected_bytes -= entry.size
        del self._segments[entry.url]
        entry.policy_data = None
        self._total -= 1

    def clear(self) -> None:
        self._probation = DList()
        self._protected = DList()
        self._segments.clear()
        self._protected_bytes = 0
        self._total = 0
