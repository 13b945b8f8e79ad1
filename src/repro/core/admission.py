"""Admission control: cache on second request.

One-hit wonders — documents requested exactly once — are a large share
of any proxy workload (the compulsory-miss analysis in
:mod:`repro.analysis.stack_distance` makes them visible: 40-60 % of
requests are first references).  Caching them wastes space and causes
evictions that never pay off.  The classic counter-measure, used by
modern CDNs and studied since Maltzahn et al.: *admit a document only
on its second request within a window*.

:class:`SecondHitAdmission` wraps any replacement policy.  It keeps a
bounded LRU "seen once" table of URLs; a document is admitted only if
its URL is already in the table (and a miss refreshes the table).  The
wrapped policy is untouched — admission and eviction stay orthogonal,
mirroring the library's cache/policy split.
"""

from __future__ import annotations

from typing import Dict

from repro.core.policy import CacheEntry, ReplacementPolicy
from repro.errors import ConfigurationError
from repro.structures.dlist import DList


class SeenOnceTable:
    """Bounded LRU set of URLs seen (at least) once recently."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity = capacity
        self._order: DList = DList()
        self._nodes: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, url: str) -> bool:
        return url in self._nodes

    def touch(self, url: str) -> None:
        """Record a sighting, refreshing recency; evicts the oldest
        entry beyond capacity."""
        node = self._nodes.get(url)
        if node is not None:
            self._order.move_to_back(node)
            return
        self._nodes[url] = self._order.push_back(url)
        if len(self._nodes) > self.capacity:
            evicted = self._order.pop_front()
            del self._nodes[evicted]

    def discard(self, url: str) -> None:
        node = self._nodes.pop(url, None)
        if node is not None:
            self._order.unlink(node)

    def clear(self) -> None:
        self._order = DList()
        self._nodes.clear()


class SecondHitAdmission(ReplacementPolicy):
    """Wraps a policy with admit-on-second-request filtering.

    The cache calls :meth:`admits_url` before every insertion; a URL not
    yet in the seen-once table is refused (and remembered), so its
    *next* miss within the window is admitted.  Every other policy
    hook forwards to the wrapped policy unchanged.
    """

    def __init__(self, inner: ReplacementPolicy,
                 window_urls: int = 100_000):
        self.inner = inner
        self.name = f"2hit+{inner.name}"
        self._seen = SeenOnceTable(window_urls)

    def __len__(self) -> int:
        return len(self.inner)

    def attach(self, cache) -> None:
        self.cache = cache
        self.inner.attach(cache)

    def admits(self, size: int) -> bool:
        # Only the inner policy's size test: Cache.__init__ resolves
        # admits_url as the gate when a policy defines it.
        return self.inner.admits(size)

    def admits_url(self, url: str, size: int) -> bool:
        """URL-aware admission: True only for re-seen URLs."""
        if not self.inner.admits(size):
            return False
        if url in self._seen:
            return True
        self._seen.touch(url)
        return False

    def on_admit(self, entry: CacheEntry) -> None:
        self._seen.discard(entry.url)   # resident: table slot freed
        self.inner.on_admit(entry)

    def on_hit(self, entry: CacheEntry) -> None:
        self.inner.on_hit(entry)

    def peek_victim(self) -> CacheEntry:
        return self.inner.peek_victim()

    def pop_victim(self) -> CacheEntry:
        victim = self.inner.pop_victim()
        # An evicted document goes back to "seen": its next miss
        # re-admits immediately (it has proven reuse).
        self._seen.touch(victim.url)
        return victim

    def remove(self, entry: CacheEntry) -> None:
        self.inner.remove(entry)

    def clear(self) -> None:
        self.inner.clear()
        self._seen.clear()
