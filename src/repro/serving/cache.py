"""A thread-safe served cache around one replacement policy.

:class:`ServedCache` wraps the simulator's
:class:`~repro.core.cache.Cache` + policy pair for concurrent online
use.  Design rules:

* **One lock, whole operations.**  Every cache/policy touch — reads
  included — runs under one per-instance lock, because policy
  structures are transiently inconsistent mid-operation (see the
  concurrency contract in :mod:`repro.core.policy`).  The lock is held
  for microseconds (dict + dlist/heap ops); fills happen *outside* it.
* **Simulator semantics, bit for bit.**  :meth:`request` is exactly
  ``Cache.reference`` under the lock, so a replayed request stream
  produces the hit sequence the simulator would — the property the
  triple-path validation in :mod:`repro.serving.replay` rests on.
* **Single-flight fills.**  :meth:`get_or_fetch` coalesces concurrent
  misses on one URL: the first thread becomes the fill leader and
  calls the loader once; followers wait on the flight's event and
  share the result.  Loaders run unlocked, so a slow origin stalls
  only the threads that need that document.
* **Serialized op journal.**  With ``record_ops=True`` every mutating
  operation is appended (under the lock) to a journal in its
  serialization order, so a stress test can replay the journal
  sequentially and demand the exact same final state — the
  linearizability check in ``tests/serving/``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.cache import Cache
from repro.core.heap_policy import HeapPolicy
from repro.core.policy import AccessOutcome, CacheEntry, ReplacementPolicy
from repro.core.registry import make_policy
from repro.errors import ConfigurationError
from repro.types import DocumentType


@dataclass(frozen=True)
class CachedDocument:
    """Immutable snapshot of one resident document, safe to hand out
    after the lock is released (a live :class:`CacheEntry` is not)."""

    url: str
    size: int
    doc_type: DocumentType
    frequency: int
    payload: Optional[bytes] = None


@dataclass
class ServingStats:
    """Point-in-time counters of one served cache (taken under lock)."""

    resident_docs: int
    occupancy_bytes: int
    capacity_bytes: int
    hits: int
    misses: int
    evictions: int
    invalidations: int
    bypasses: int
    deletes: int
    fills: int
    coalesced_fills: int
    next_victim: Optional[str] = None
    hit_rate: float = field(init=False)

    def __post_init__(self):
        lookups = self.hits + self.misses
        self.hit_rate = self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "resident_docs": self.resident_docs,
            "occupancy_bytes": self.occupancy_bytes,
            "capacity_bytes": self.capacity_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "bypasses": self.bypasses,
            "deletes": self.deletes,
            "fills": self.fills,
            "coalesced_fills": self.coalesced_fills,
            "next_victim": self.next_victim,
            "hit_rate": self.hit_rate,
        }


class _Flight:
    """One in-progress miss fill, shared by its coalesced waiters."""

    __slots__ = ("done", "document", "error")

    def __init__(self):
        self.done = threading.Event()
        self.document: Optional[CachedDocument] = None
        self.error: Optional[BaseException] = None


#: Loader signature for :meth:`ServedCache.get_or_fetch`: given a URL,
#: return ``(size, doc_type)`` or ``(size, doc_type, payload)``.
Loader = Callable[[str], tuple]


class ServedCache:
    """One policy-driven cache instance, safe for concurrent callers."""

    def __init__(self, capacity_bytes: int,
                 policy: Union[str, ReplacementPolicy] = "lru",
                 name: str = "cache", record_ops: bool = False):
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.name = name
        self.policy = policy
        self._cache = Cache(capacity_bytes, policy)
        self._cache.on_evict = self._dropped
        self._lock = threading.RLock()
        self._payloads: Dict[str, bytes] = {}
        self._flights: Dict[str, _Flight] = {}
        self._flights_lock = threading.Lock()
        self.deletes = 0
        self.fills = 0
        self.coalesced_fills = 0
        self._journal: Optional[List[tuple]] = [] if record_ops else None

    # -- introspection (all under the lock: policy structures are never
    # observable mid-operation) -------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self._cache.capacity_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def __contains__(self, url: str) -> bool:
        with self._lock:
            return url in self._cache

    @property
    def occupancy_bytes(self) -> int:
        with self._lock:
            return self._cache.used_bytes

    def stats(self) -> ServingStats:
        with self._lock:
            cache = self._cache
            victim = cache.next_victim()
            return ServingStats(
                resident_docs=len(cache),
                occupancy_bytes=cache.used_bytes,
                capacity_bytes=cache.capacity_bytes,
                hits=cache.hits, misses=cache.misses,
                evictions=cache.evictions,
                invalidations=cache.invalidations,
                bypasses=cache.bypasses, deletes=self.deletes,
                fills=self.fills,
                coalesced_fills=self.coalesced_fills,
                next_victim=victim.url if victim is not None else None)

    def resident_urls(self) -> List[str]:
        """Snapshot of resident URLs (arbitrary order)."""
        with self._lock:
            return [entry.url for entry in self._cache.entries()]

    def documents(self) -> List[CachedDocument]:
        """Snapshot of every resident document, type and body
        included (arbitrary order)."""
        with self._lock:
            return [self._snapshot(e) for e in self._cache.entries()]

    def check_invariants(self) -> None:
        """Byte accounting, policy/residency agreement, payload sync —
        asserted under the lock (the lock-granularity test hammers this
        from reader threads while writers are mid-eviction)."""
        with self._lock:
            self._cache.check_invariants()
            if isinstance(self.policy, HeapPolicy):
                self.policy.check_invariants()
            for url in self._payloads:
                assert url in self._cache, (
                    f"payload for non-resident {url!r}")

    # -- the serving API ---------------------------------------------------

    def request(self, url: str, size: int,
                doc_type: DocumentType = DocumentType.OTHER
                ) -> AccessOutcome:
        """One reference with exact simulator semantics (hit, admit on
        miss, stale-copy replacement), serialized by the lock."""
        with self._lock:
            outcome = self._cache.reference(url, size, doc_type)
            if self._journal is not None:
                self._journal.append(("request", url, size,
                                      doc_type.value))
            return outcome

    def get(self, url: str) -> Optional[CachedDocument]:
        """Hit path: a resident document is referenced (policy order
        and frequency update) and returned as a snapshot; a miss
        returns None and counts a lookup miss *without* admitting
        anything (the fill path is :meth:`get_or_fetch` / :meth:`put`).
        """
        with self._lock:
            entry = self._cache.get(url)
            if entry is None:
                self._cache.misses += 1
                if self._journal is not None:
                    self._journal.append(("miss", url))
                return None
            outcome = self._cache.reference(url, entry.size,
                                            entry.doc_type)
            if self._journal is not None:
                self._journal.append(("request", url, entry.size,
                                      entry.doc_type.value))
            if outcome is not AccessOutcome.HIT:  # pragma: no cover
                raise AssertionError(
                    "resident entry re-referenced at its own size "
                    f"must hit, got {outcome}")
            return self._snapshot(entry)

    def put(self, url: str, size: int,
            doc_type: DocumentType = DocumentType.OTHER,
            payload: Optional[bytes] = None) -> AccessOutcome:
        """Insert/refresh a document (counts as one reference)."""
        if payload is not None and len(payload) != size:
            raise ConfigurationError(
                f"payload is {len(payload)} bytes but size={size}")
        with self._lock:
            outcome = self._cache.reference(url, size, doc_type)
            if payload is not None and url in self._cache:
                self._payloads[url] = payload
            if self._journal is not None:
                self._journal.append(("put", url, size, doc_type.value))
            return outcome

    def delete(self, url: str) -> bool:
        """Remove a document without counting a reference."""
        with self._lock:
            removed = self._cache.invalidate(url)
            if removed:
                self.deletes += 1
            if self._journal is not None:
                self._journal.append(("delete", url))
            return removed

    def flush(self) -> None:
        with self._lock:
            self._cache.flush()
            self._payloads.clear()
            if self._journal is not None:
                self._journal.append(("flush",))

    # -- single-flight miss fill ------------------------------------------

    def get_or_fetch(self, url: str, loader: Loader) -> CachedDocument:
        """Return the document, filling it through ``loader`` on miss.

        Concurrent misses on one URL coalesce: exactly one caller (the
        leader) runs ``loader(url)``; the rest block on the flight and
        share its result (or its exception).  The loader runs with no
        locks held.  A loader returning a document larger than the
        cache still yields the document to every waiter — it just is
        not admitted (bypass), matching the simulator's semantics.
        """
        document = self.get(url)
        if document is not None:
            return document
        while True:
            with self._flights_lock:
                flight = self._flights.get(url)
                leader = flight is None
                if leader:
                    flight = self._flights[url] = _Flight()
            if not leader:
                flight.done.wait()
                with self._lock:
                    self.coalesced_fills += 1
                if flight.error is not None:
                    raise flight.error
                if flight.document is not None:
                    return flight.document
                continue  # leader failed to produce; retry as leader
            try:
                document = self._fill(url, loader)
                flight.document = document
                return document
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._flights_lock:
                    del self._flights[url]
                flight.done.set()

    def _fill(self, url: str, loader: Loader) -> CachedDocument:
        loaded = loader(url)
        if not isinstance(loaded, tuple) or len(loaded) not in (2, 3):
            raise ConfigurationError(
                "loader must return (size, doc_type[, payload]), got "
                f"{loaded!r}")
        size, doc_type = loaded[0], loaded[1]
        payload = loaded[2] if len(loaded) == 3 else None
        with self._lock:
            self.fills += 1
            # Another leader may have admitted between our miss and
            # this fill (we re-check rather than double-reference).
            entry = self._cache.get(url)
            if entry is None or entry.size != size:
                self.put(url, size, doc_type, payload)
                entry = self._cache.get(url)
            if entry is not None:
                return self._snapshot(entry)
            # Bypassed (larger than the cache): serve without caching.
            return CachedDocument(url=url, size=size, doc_type=doc_type,
                                  frequency=0, payload=payload)

    # -- internals ---------------------------------------------------------

    def _snapshot(self, entry: CacheEntry) -> CachedDocument:
        return CachedDocument(url=entry.url, size=entry.size,
                              doc_type=entry.doc_type,
                              frequency=entry.frequency,
                              payload=self._payloads.get(entry.url))

    def _dropped(self, entry: CacheEntry) -> None:
        # Cache.on_evict observer: keep the payload sidecar in sync.
        self._payloads.pop(entry.url, None)

    # -- the op journal (linearizability harness) --------------------------

    def journal(self) -> List[tuple]:
        """The serialized op log (requires ``record_ops=True``)."""
        if self._journal is None:
            raise ConfigurationError(
                "ServedCache was not built with record_ops=True")
        with self._lock:
            return list(self._journal)

    @staticmethod
    def replay_journal(journal: List[tuple], capacity_bytes: int,
                       policy: Union[str, ReplacementPolicy]
                       ) -> "ServedCache":
        """Apply a journal sequentially to a fresh cache.

        Because every journal entry was appended under the lock at the
        moment its operation took effect, a sequential replay must end
        in exactly the state the concurrent run ended in — the
        linearizability oracle.
        """
        replica = ServedCache(capacity_bytes, policy)
        for op in journal:
            kind = op[0]
            if kind == "request" or kind == "put":
                replica.request(op[1], op[2], DocumentType(op[3]))
            elif kind == "miss":
                with replica._lock:
                    replica._cache.misses += 1
            elif kind == "delete":
                replica.delete(op[1])
            elif kind == "flush":
                replica.flush()
            else:  # pragma: no cover - journal is library-written
                raise ConfigurationError(f"unknown journal op {op!r}")
        return replica
