"""The proxy cache: capacity, residency, and byte accounting.

The cache is policy-agnostic: it owns the URL → entry map and the byte
budget, delegates every ordering decision to its
:class:`~repro.core.policy.ReplacementPolicy`, and reports what happened
to each reference as an :class:`~repro.core.policy.AccessOutcome`.

Semantics (paper Section 4.1):

* a referenced document resident *at its current size* is a **hit**;
* a resident document whose size changed is **stale** — the reference is
  a modification miss; the old copy is removed and the new version
  admitted;
* a document larger than the whole cache is never admitted (bypass);
* admission evicts minimum-value victims until the new document fits.

:meth:`Cache.reference` is the loop every simulation, network walk and
served request runs once per reference, so its miss path is written
flat: the policy's admission gate is resolved once at construction
(most policies have none), room is made only when the document does not
already fit, and a plain miss and a modified document share one admit
sequence.  What is left per admitted document is the calls that do the
work — the entry constructor, ``policy.on_admit`` and, per victim,
``policy.pop_victim``.

The cache is **single-threaded** (see the concurrency contract in
:mod:`repro.core.policy`); the serving layer wraps it in one
per-instance lock rather than this module locking per operation.
:attr:`Cache.on_evict` is the observation hook that layer uses: it
fires once per evicted entry, after the entry has fully left both the
residency map and the policy — never mid-eviction.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.core.policy import AccessOutcome, CacheEntry, ReplacementPolicy
from repro.errors import CapacityError, SimulationError
from repro.types import DocumentType

_HIT = AccessOutcome.HIT
_MISS = AccessOutcome.MISS
_MISS_MODIFIED = AccessOutcome.MISS_MODIFIED
_MISS_TOO_BIG = AccessOutcome.MISS_TOO_BIG


class Cache:
    """Byte-capacity cache driven by a replacement policy."""

    def __init__(self, capacity_bytes: int, policy: ReplacementPolicy):
        if capacity_bytes <= 0:
            raise CapacityError(
                f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.used_bytes = 0
        self.clock = 0
        self._entries: Dict[str, CacheEntry] = {}
        # Running counters (never reset by warm-up; the simulator keeps
        # its own warm-up-aware metrics).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.invalidations = 0
        #: Optional observer called as ``on_evict(entry)`` after each
        #: eviction completes (entry removed from residency *and*
        #: policy).  Also fires for invalidation-path drops, so an
        #: observer tracking sidecar state (e.g. served payloads) sees
        #: every departure.  None (the default) costs one comparison.
        self.on_evict = None
        policy.attach(self)
        # The policy's admission test as ``gate(url, size)``, resolved
        # once: ``admits_url`` where the policy defines it, else
        # ``admits`` where it overrides the base class's always-true
        # default, else None (nothing to ask on a miss).
        gate = getattr(policy, "admits_url", None)
        if gate is None and (type(policy).admits
                             is not ReplacementPolicy.admits):
            admits = policy.admits
            gate = lambda url, size: admits(size)  # noqa: E731
        self._gate = gate

    # ----- queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, url: str) -> bool:
        return url in self._entries

    def get(self, url: str) -> Optional[CacheEntry]:
        """Resident entry for a URL, or None (no side effects)."""
        return self._entries.get(url)

    def entries(self) -> Iterator[CacheEntry]:
        """Iterate resident entries in arbitrary order."""
        return iter(self._entries.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def next_victim(self) -> Optional[CacheEntry]:
        """The entry the policy would evict next, or None when the
        cache is empty or the policy cannot preview without mutating
        (:meth:`~repro.core.policy.ReplacementPolicy.peek_victim`)."""
        try:
            return self.policy.peek_victim()
        except (IndexError, NotImplementedError):
            return None

    # ----- the one mutating entry point ----------------------------------

    def reference(self, url: str, size: int,
                  doc_type: DocumentType = DocumentType.OTHER) -> AccessOutcome:
        """Process one reference; admits on miss.

        ``size`` is the document's full size as of this request.  A
        resident copy with a different size is stale (modified document)
        and is replaced.
        """
        if size < 0:
            raise ValueError("size must be non-negative")
        self.clock += 1
        entries = self._entries
        entry = entries.get(url)
        if entry is None:
            outcome = _MISS
        elif entry.size == size:
            entry.frequency += 1
            entry.last_access = self.clock
            self.policy.on_hit(entry)
            self.hits += 1
            return _HIT
        else:
            # Modified document: stale copy out, new version in (unless
            # the new version no longer fits or is refused admission).
            self._drop(entry)
            outcome = _MISS_MODIFIED
        self.misses += 1
        gate = self._gate
        if size > self.capacity_bytes or (
                gate is not None and not gate(url, size)):
            self.bypasses += 1
            return _MISS_TOO_BIG
        if self.used_bytes + size > self.capacity_bytes:
            self._make_room(size)
        entry = CacheEntry(url, size, doc_type, self.clock)
        entries[url] = entry
        self.used_bytes += size
        self.policy.on_admit(entry)
        return outcome

    def invalidate(self, url: str) -> bool:
        """Remove a document without counting a reference; True if present."""
        entry = self._entries.get(url)
        if entry is None:
            return False
        self._drop(entry)
        return True

    def flush(self) -> None:
        """Empty the cache (keeps counters)."""
        self._entries.clear()
        self.used_bytes = 0
        self.policy.clear()

    # ----- internals ------------------------------------------------------

    def _make_room(self, needed: int) -> None:
        while self.used_bytes + needed > self.capacity_bytes:
            try:
                victim = self.policy.pop_victim()
            except IndexError as exc:
                raise SimulationError(
                    "policy has no victim but cache lacks space: "
                    f"used={self.used_bytes} needed={needed} "
                    f"capacity={self.capacity_bytes}") from exc
            resident = self._entries.pop(victim.url, None)
            if resident is not victim:
                raise SimulationError(
                    f"policy evicted unknown entry {victim.url!r}")
            self.used_bytes -= victim.size
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(victim)

    def _drop(self, entry: CacheEntry) -> None:
        """A resident entry leaves for a reason other than eviction."""
        self.policy.remove(entry)
        del self._entries[entry.url]
        self.used_bytes -= entry.size
        self.invalidations += 1
        if self.on_evict is not None:
            self.on_evict(entry)

    # ----- consistency check (tests) -------------------------------------

    def check_invariants(self) -> None:
        """Assert byte accounting and policy/residency agreement."""
        total = sum(entry.size for entry in self._entries.values())
        assert total == self.used_bytes, (
            f"byte accounting drifted: {total} != {self.used_bytes}")
        assert self.used_bytes <= self.capacity_bytes, "over capacity"
        policy_len = len(self.policy)
        assert policy_len == len(self._entries), (
            f"policy tracks {policy_len} entries, cache holds "
            f"{len(self._entries)}")
