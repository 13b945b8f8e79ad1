"""Statically type-partitioned cache.

The paper's motivation — "the effective design of web cache replacement
schemes under changing workload characteristics" — suggests an obvious
design the paper leaves on the table: give each document type its own
capacity slice and (possibly different) replacement policy, so large
multimedia documents compete only with each other instead of flushing
thousands of images.  :class:`PartitionedCache` implements that design
and is drop-in compatible with the simulator (pass it as ``cache=``),
enabling the ``ablation-partition`` experiment
(``tests/experiments/test_runner.py`` checks its shape).

Capacity shares are static; a byte budgeted for one type is never lent
to another (that rigidity is exactly the trade-off the ablation
measures against GD*'s implicit, adaptive partitioning).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Mapping, Optional

from repro.core.cache import Cache
from repro.core.policy import AccessOutcome, CacheEntry, ReplacementPolicy
from repro.core.registry import make_policy
from repro.errors import CapacityError, ConfigurationError
from repro.types import DOCUMENT_TYPES, DocumentType

PolicyFactory = Callable[[], ReplacementPolicy]


class PartitionedCache:
    """One independent :class:`~repro.core.cache.Cache` per document type.

    Exposes the same surface the simulator and occupancy tracker use:
    ``reference``, ``invalidate``, ``entries``, ``used_bytes``,
    ``capacity_bytes``, the hit/miss/eviction counters, and ``clock``.
    """

    def __init__(self, capacity_bytes: int,
                 shares: Optional[Mapping[DocumentType, float]] = None,
                 policy_factory: PolicyFactory = None,
                 policies: Optional[Mapping[DocumentType,
                                            ReplacementPolicy]] = None):
        """Build the partitions.

        Args:
            capacity_bytes: Total capacity split across types.
            shares: Fraction of capacity per type; must cover every
                document type and sum to 1.  Defaults to equal shares.
            policy_factory: Zero-argument callable producing one fresh
                policy per partition (default: LRU everywhere).
            policies: Explicit per-type policy instances; overrides
                ``policy_factory`` for the listed types.
        """
        if capacity_bytes <= 0:
            raise CapacityError("capacity must be positive")
        if shares is None:
            shares = {t: 1.0 / len(DOCUMENT_TYPES) for t in DOCUMENT_TYPES}
        missing = set(DOCUMENT_TYPES) - set(shares)
        if missing:
            raise ConfigurationError(
                f"shares missing document types: "
                f"{sorted(t.value for t in missing)}")
        total = sum(shares.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(f"shares sum to {total}, expected 1")
        if any(share <= 0 for share in shares.values()):
            raise ConfigurationError("every share must be positive")

        factory = policy_factory or make_policy_factory("lru")
        self.capacity_bytes = capacity_bytes
        self.partitions: Dict[DocumentType, Cache] = {}
        for doc_type in DOCUMENT_TYPES:
            policy = None
            if policies is not None:
                policy = policies.get(doc_type)
            if policy is None:
                policy = factory()
            capacity = max(int(capacity_bytes * shares[doc_type]), 1)
            self.partitions[doc_type] = Cache(capacity, policy)
        self.clock = 0

    # ----- Cache-compatible surface --------------------------------------

    def reference(self, url: str, size: int,
                  doc_type: DocumentType = DocumentType.OTHER
                  ) -> AccessOutcome:
        self.clock += 1
        return self.partitions[doc_type].reference(url, size, doc_type)

    def invalidate(self, url: str) -> bool:
        return any(partition.invalidate(url)
                   for partition in self.partitions.values())

    def entries(self) -> Iterator[CacheEntry]:
        for partition in self.partitions.values():
            yield from partition.entries()

    def __len__(self) -> int:
        return sum(len(partition) for partition in self.partitions.values())

    def __contains__(self, url: str) -> bool:
        return any(url in partition
                   for partition in self.partitions.values())

    @property
    def used_bytes(self) -> int:
        return sum(p.used_bytes for p in self.partitions.values())

    @property
    def hits(self) -> int:
        return sum(p.hits for p in self.partitions.values())

    @property
    def misses(self) -> int:
        return sum(p.misses for p in self.partitions.values())

    @property
    def evictions(self) -> int:
        return sum(p.evictions for p in self.partitions.values())

    @property
    def invalidations(self) -> int:
        return sum(p.invalidations for p in self.partitions.values())

    @property
    def bypasses(self) -> int:
        return sum(p.bypasses for p in self.partitions.values())

    def flush(self) -> None:
        for partition in self.partitions.values():
            partition.flush()

    def check_invariants(self) -> None:
        for partition in self.partitions.values():
            partition.check_invariants()

    # ----- introspection ---------------------------------------------------

    def partition_of(self, doc_type: DocumentType) -> Cache:
        return self.partitions[doc_type]


def make_policy_factory(name: str, **kwargs) -> PolicyFactory:
    """A factory producing a fresh named policy per call."""
    def factory() -> ReplacementPolicy:
        return make_policy(name, **kwargs)
    return factory


def request_share_partitioning(breakdown_requests: Mapping[DocumentType,
                                                           float]
                               ) -> Dict[DocumentType, float]:
    """Shares proportional to a trace's per-type request percentages.

    Accepts the ``total_requests`` mapping of a
    :class:`~repro.types.TypeBreakdown` (values in percent) and
    normalizes, flooring each share at 0.5 % so no partition is
    starved to nothing.
    """
    floored = {t: max(breakdown_requests.get(t, 0.0), 0.5)
               for t in DOCUMENT_TYPES}
    total = sum(floored.values())
    return {t: value / total for t, value in floored.items()}
