"""Consistent-hash sharding over N served cache instances.

:class:`HashRing` places ``vnodes`` points per shard on a 64-bit ring
(md5 of ``"shard-name#replica"`` — stable across processes and
``PYTHONHASHSEED``, unlike ``hash()``); a URL maps to the first point
clockwise from its own hash.  Adding or removing one shard therefore
moves only ``~1/N`` of the key space — the property that makes live
resharding affordable.

Each ring memoises its answers: :meth:`HashRing.owner` is the ring's
own ``functools.lru_cache`` over the md5 + bisect lookup, so a key is
hashed once per ring rather than once per request, and a repeat key is
answered in C without a Python frame; the standard library's cache is
safe to call from many threads.  It holds at most
``_MEMO_BOUND`` keys and evicts the least recently used one beyond
that, so a key stream with more distinct URLs than the bound keeps its
hot keys memoised.  No invalidation is needed because a ring is
immutable: a membership change builds a new ring, whose memo starts
empty.

:class:`ShardedCache` is the routing layer: it owns the ring plus one
:class:`~repro.serving.cache.ServedCache` per shard and forwards
``get``/``put``/``delete``/``request`` to the owning shard.  Shard
membership changes swap in a *new* ring under a membership lock
(copy-on-write: in-flight requests finish against the ring they
started with, and per-request routing never locks anything global —
each shard's own lock is the only serialization point).

Per-shard capacity budgets are explicit: ``capacity_bytes`` is the
aggregate budget, split uniformly unless per-shard budgets are given —
holding the total constant is what makes sharded hit rates comparable
against a single cache of the same size.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.policy import AccessOutcome
from repro.errors import ConfigurationError
from repro.observability.events import emit
from repro.observability.metrics import get_registry
from repro.serving.cache import CachedDocument, Loader, ServedCache
from repro.types import DocumentType

#: Ring points per shard.  128 keeps the max/mean key-share imbalance
#: under ~10% for small N while the ring stays a few KB.
DEFAULT_VNODES = 128

#: Keys one ring memoises (least recently used evicted first).  The
#: perf ledger's trace has 11 670 distinct URLs and fits; a DFN replay
#: has about 187k at ``--profile-scale 0.0625`` and 3M at full scale,
#: and the live front end takes any URL, so there the bound is what
#: holds the memo to a few MB.
_MEMO_BOUND = 1 << 16


def _ring_hash(data: str) -> int:
    """64-bit stable hash (first 8 bytes of md5, big-endian)."""
    return int.from_bytes(
        hashlib.md5(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Immutable consistent-hash ring over a set of shard names."""

    #: ``owner(key)``: the shard owning ``key``, memoised per ring.
    owner: Callable[[str], str]

    def __init__(self, shards: Iterable[str],
                 vnodes: int = DEFAULT_VNODES):
        names = list(shards)
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate shard names: {names}")
        if vnodes < 1:
            raise ConfigurationError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.shards: Tuple[str, ...] = tuple(names)
        points: List[Tuple[int, str]] = []
        for name in names:
            for replica in range(vnodes):
                points.append((_ring_hash(f"{name}#{replica}"), name))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [name for _, name in points]
        self.owner = functools.lru_cache(maxsize=_MEMO_BOUND)(self._owner)

    def __len__(self) -> int:
        return len(self.shards)

    def _owner(self, key: str) -> str:
        """The shard owning ``key`` (first point clockwise); each ring
        exposes it memoised as ``owner``."""
        if not self._hashes:
            raise ConfigurationError("ring has no shards")
        index = bisect.bisect_right(self._hashes, _ring_hash(key))
        if index == len(self._hashes):
            index = 0
        return self._owners[index]


class ShardedCache:
    """Consistent-hash router over per-shard :class:`ServedCache`\\ s."""

    def __init__(self, capacity_bytes: int, n_shards: int = 4,
                 policy: str = "lru", vnodes: int = DEFAULT_VNODES,
                 shard_capacities: Optional[Sequence[int]] = None,
                 name: str = "sharded", record_ops: bool = False):
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        self.name = name
        self.policy_name = policy
        self.vnodes = vnodes
        self._record_ops = record_ops
        self._membership = threading.RLock()
        names = [f"shard-{i}" for i in range(n_shards)]
        if shard_capacities is None:
            shard_capacities = split_budget(capacity_bytes, n_shards)
        elif len(shard_capacities) != n_shards:
            raise ConfigurationError(
                f"{len(shard_capacities)} budgets for {n_shards} shards")
        self._shards: Dict[str, ServedCache] = {
            shard: ServedCache(budget, policy, name=shard,
                               record_ops=record_ops)
            for shard, budget in zip(names, shard_capacities)}
        self._ring = HashRing(names, vnodes=vnodes)

    # -- topology ----------------------------------------------------------

    @property
    def ring(self) -> HashRing:
        """The current ring (immutable; safe to use lock-free)."""
        return self._ring

    @property
    def shard_names(self) -> Tuple[str, ...]:
        return self._ring.shards

    def shard(self, name: str) -> ServedCache:
        shard = self._shards.get(name)
        if shard is None:
            raise ConfigurationError(f"unknown shard {name!r}")
        return shard

    def shard_for(self, url: str) -> ServedCache:
        return self._shards[self._ring.owner(url)]

    @property
    def capacity_bytes(self) -> int:
        with self._membership:
            return sum(s.capacity_bytes for s in self._shards.values())

    def add_shard(self, name: str, capacity_bytes: int) -> ServedCache:
        """Bring one shard online; keys hashing to its ring points are
        owned by it from the moment the new ring is swapped in.

        Documents those keys left behind on their old shards are not
        migrated: they become cold residue that the old shard's policy
        evicts naturally — the standard consistent-hashing trade.
        """
        with self._membership:
            if name in self._shards:
                raise ConfigurationError(
                    f"shard {name!r} already exists")
            shard = ServedCache(capacity_bytes, self.policy_name,
                                name=name, record_ops=self._record_ops)
            self._shards[name] = shard
            self._ring = HashRing(list(self._ring.shards) + [name],
                                  vnodes=self.vnodes)
            emit("shard_rebalanced", action="added", shard=name,
                 shards=len(self._ring))
            return shard

    def remove_shard(self, name: str, drain: bool = True) -> None:
        """Take one shard offline.

        With ``drain=True`` its resident documents are re-``put`` onto
        the surviving shards with their type and body (at frequency 1 —
        residency moves, policy history does not), so a removal is a
        rebalance instead of a mass cache-miss event.
        """
        with self._membership:
            if len(self._shards) == 1:
                raise ConfigurationError(
                    "cannot remove the last shard")
            shard = self.shard(name)
            survivors = [s for s in self._ring.shards if s != name]
            self._ring = HashRing(survivors, vnodes=self.vnodes)
            del self._shards[name]
            if drain:
                for doc in shard.documents():
                    self.shard_for(doc.url).put(doc.url, doc.size,
                                                doc.doc_type, doc.payload)
            shard.flush()
            emit("shard_rebalanced", action="removed", shard=name,
                 shards=len(self._ring))

    # -- the serving API (routed) ------------------------------------------

    def request(self, url: str, size: int,
                doc_type: DocumentType = DocumentType.OTHER
                ) -> AccessOutcome:
        return self.shard_for(url).request(url, size, doc_type)

    def get(self, url: str) -> Optional[CachedDocument]:
        return self.shard_for(url).get(url)

    def put(self, url: str, size: int,
            doc_type: DocumentType = DocumentType.OTHER,
            payload: Optional[bytes] = None) -> AccessOutcome:
        return self.shard_for(url).put(url, size, doc_type, payload)

    def delete(self, url: str) -> bool:
        return self.shard_for(url).delete(url)

    def get_or_fetch(self, url: str, loader: Loader) -> CachedDocument:
        return self.shard_for(url).get_or_fetch(url, loader)

    def __contains__(self, url: str) -> bool:
        return url in self.shard_for(url)

    def __len__(self) -> int:
        with self._membership:
            return sum(len(s) for s in self._shards.values())

    # -- aggregated introspection -----------------------------------------

    def stats(self) -> dict:
        with self._membership:
            shards = {name: self._shards[name].stats().as_dict()
                      for name in self._ring.shards}
        totals = {
            key: sum(s[key] for s in shards.values())
            for key in ("resident_docs", "occupancy_bytes",
                        "capacity_bytes", "hits", "misses", "evictions",
                        "invalidations", "bypasses", "deletes", "fills",
                        "coalesced_fills")}
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return {"shards": shards, "total": totals}

    def check_invariants(self) -> None:
        with self._membership:
            for shard in self._shards.values():
                shard.check_invariants()

    def publish_metrics(self) -> None:
        """Export per-shard occupancy/residency gauges through the
        metrics registry.  Called from stats endpoints and the replay
        harness's reporting points — never per request — so the no-op
        default registry keeps the hot path clean."""
        registry = get_registry()
        if not registry.enabled:
            return
        with self._membership:
            for name in self._ring.shards:
                stats = self._shards[name].stats()
                registry.gauge("serving_shard_occupancy_bytes",
                               shard=name).set(stats.occupancy_bytes)
                registry.gauge("serving_shard_resident_docs",
                               shard=name).set(stats.resident_docs)
                registry.gauge("serving_shard_hits_total",
                               shard=name).set(stats.hits)
                registry.gauge("serving_shard_misses_total",
                               shard=name).set(stats.misses)


def split_budget(capacity_bytes: int, n_shards: int) -> List[int]:
    """Split an aggregate byte budget uniformly, remainder to the
    earliest shards; every shard gets at least one byte."""
    if capacity_bytes < n_shards:
        raise ConfigurationError(
            f"cannot split {capacity_bytes} bytes over {n_shards} "
            "shards")
    base, remainder = divmod(capacity_bytes, n_shards)
    return [base + (1 if i < remainder else 0) for i in range(n_shards)]
