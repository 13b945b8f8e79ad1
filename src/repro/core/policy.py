"""Replacement-policy interface and cache entry record.

A policy never touches capacity or residency; it only maintains an
eviction order over the entries the cache hands it.  The contract:

* ``on_admit(entry)`` — a new entry became resident;
* ``on_hit(entry)`` — a resident entry was referenced (the cache has
  already incremented ``entry.frequency``);
* ``pop_victim()`` — remove and return the entry the policy evicts next;
* ``remove(entry)`` — a resident entry leaves for policy-external
  reasons (document modification);
* ``clear()`` — drop all state.

Policies may keep per-entry state in ``entry.policy_data``; the cache
guarantees an entry is handed to exactly one policy.  A policy that is
a priority queue on one key per entry defines only ``_key`` on
:class:`~repro.core.heap_policy.HeapPolicy`.

Concurrency contract
--------------------

Policies are **single-threaded**.  Every mutation point — the dlist
relinks of :meth:`ReplacementPolicy.on_hit`, the heap pushes and pops a
heap policy (its own heap) writes out in its hooks, the bookkeeping its
``_key`` updates (:mod:`repro.core.heap_policy`) — leaves the backing
structure transiently inconsistent (a node unlinked but not relinked, a
re-keyed tuple pushed but not yet recorded as the item's live one, a
reuse clock ticked before its key is pushed, ``inflation`` read before
the pop that advances it).
Nothing in :mod:`repro.core` locks, because the simulator drives each
cache from exactly one thread.

Concurrent access therefore belongs one layer up:
:class:`repro.serving.cache.ServedCache` serializes *every* cache and
policy touch — mutations and reads alike — behind one per-instance
lock, so no thread can observe :class:`~repro.structures.dlist.DList`
or :class:`~repro.structures.addressable_heap.AddressableHeap` state
mid-eviction.  Code adding a policy needs no locking of its own, but
must not cache state outside the entry/structure fields the lock
already covers.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Any

from repro.types import DocumentType


class CacheEntry:
    """One resident document.

    Attributes:
        url: Document identifier.
        size: Document size in bytes at admission (updated on
            modification re-admission).
        doc_type: Document type, for per-type occupancy accounting.
        frequency: Reference count during the current cache residency
            (1 at admission, +1 per hit) — the f(p) of GDSF/GD*.
        last_access: Cache clock value of the most recent reference.
        policy_data: Scratch slot owned by the policy.
    """

    __slots__ = ("url", "size", "doc_type", "frequency", "last_access",
                 "policy_data")

    def __init__(self, url: str, size: int, doc_type: DocumentType,
                 clock: int = 0):
        self.url = url
        self.size = size
        self.doc_type = doc_type
        self.frequency = 1
        self.last_access = clock
        self.policy_data: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheEntry(url={self.url!r}, size={self.size}, "
                f"type={self.doc_type.value}, freq={self.frequency})")


class AccessOutcome(enum.Enum):
    """What the cache did with one reference."""

    HIT = "hit"
    MISS = "miss"                  # admitted after a plain miss
    MISS_TOO_BIG = "miss-too-big"  # larger than the whole cache; bypassed
    MISS_MODIFIED = "miss-modified"  # cached copy was stale (modification)


class ReplacementPolicy(ABC):
    """Abstract eviction-order maintainer."""

    #: Short machine name, e.g. ``"lru"`` or ``"gd*(p)"``.
    name: str = "abstract"

    def attach(self, cache: "Any") -> None:
        """Called once when the policy is installed into a cache.

        The default keeps a back-reference so policies can read the
        cache clock; override for extra setup (and call ``super()``).

        A policy instance carries mutable eviction state, so it can
        serve exactly one cache: sharing an instance across the cells
        of a multi-cell pass would silently interleave two caches'
        eviction orders.  Re-attaching to a *different* cache therefore
        raises; build one policy per cell (as
        :func:`~repro.core.registry.make_policy` does).
        """
        current = getattr(self, "cache", None)
        if current is not None and current is not cache:
            from repro.errors import SimulationError
            raise SimulationError(
                f"policy instance {self.name!r} is already attached to "
                "a cache; policies hold per-cache eviction state, so "
                "each cache cell needs its own instance (use "
                "repro.core.registry.make_policy per cell)")
        self.cache = cache

    def admits(self, size: int) -> bool:
        """Admission filter consulted by the cache before insertion.

        Defaults to admitting everything; threshold-style policies
        (e.g. :class:`~repro.core.lru_threshold.LRUThresholdPolicy`)
        override it.  A rejected document is bypassed and counted like
        a document larger than the cache.
        """
        return True

    @abstractmethod
    def on_admit(self, entry: CacheEntry) -> None:
        """Register a newly admitted entry."""

    @abstractmethod
    def on_hit(self, entry: CacheEntry) -> None:
        """Update the eviction order after a hit on ``entry``."""

    @abstractmethod
    def pop_victim(self) -> CacheEntry:
        """Remove and return the next entry to evict.

        Raises IndexError when the policy tracks no entries (the cache
        treats that as an internal inconsistency).
        """

    def peek_victim(self) -> CacheEntry:
        """The entry :meth:`pop_victim` would return next, **without**
        removing it or advancing any aging state.

        The reusable eviction-decision hook: serving-layer admission
        control and diagnostics can ask "what would go next?" without
        running the simulator loop.  Raises IndexError when empty and
        NotImplementedError for policies whose next victim is not
        observable without mutation (e.g. random sampling); callers
        treat the latter as "no answer", never as an error.
        """
        raise NotImplementedError(
            f"{self.name!r} cannot preview its victim without mutating")

    @abstractmethod
    def remove(self, entry: CacheEntry) -> None:
        """Forget a specific resident entry (invalidation path)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all policy state."""

    def __len__(self) -> int:  # pragma: no cover - overridden where cheap
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
