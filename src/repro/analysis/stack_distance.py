"""LRU stack-distance analysis (Mattson et al., 1970).

The *stack distance* of a reference is the number of distinct documents
referenced since the previous reference to the same document.  Because
LRU is a stack algorithm, a reference hits in an LRU cache of
``C``-document capacity iff its stack distance is ≤ C — so a single
pass over the trace yields the **exact LRU hit-rate curve at every
cache size simultaneously** (in documents; web caches are byte-bounded,
so this is the document-granularity companion to the byte-accurate
simulator, and the cross-validation tests pin the two together on
fixed-size workloads).

Implementation: classic Fenwick-tree formulation, O(n log n) over the
trace; per-document-type distance histograms come for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.structures.fenwick import FenwickTree
from repro.types import DOCUMENT_TYPES, DocumentType, Request

#: Stack distance reported for first references (cold misses).
COLD = math.inf


def stack_distances(requests: Sequence[Request],
                    byte_weighted: bool = False) -> List[float]:
    """Per-request LRU stack distances (:data:`COLD` for first refs).

    By default a distance counts *distinct intervening documents*: 0
    means an immediate re-reference, and a request hits an LRU cache
    of capacity C (documents) iff its distance < C.

    With ``byte_weighted`` the distance is instead the total **bytes**
    of distinct intervening documents (each at its current size): a
    request hits a byte-capacity-B LRU cache iff roughly
    ``distance + size <= B``.  Byte distances are only approximate at
    the eviction boundary (a byte-bounded LRU evicts whole documents),
    which is why the byte curve helper carries a tolerance.
    """
    return weighted_stack_distances(
        [request.url for request in requests],
        [request.size for request in requests] if byte_weighted
        else [1] * len(requests))


def weighted_stack_distances(keys: Sequence,
                             weights: Sequence[int]) -> List[float]:
    """Stack distances over parallel key/weight sequences.

    The one Fenwick loop behind :func:`stack_distances` (keys are URLs)
    and the simulator's exact LRU capacity ladder (keys are interned
    document ids, weights their byte sizes).  Python-int arithmetic
    throughout, so byte distances are exact at any trace size.
    """
    n = len(keys)
    distances: List[float] = [COLD] * n
    if n == 0:
        return distances
    tree = FenwickTree(n)
    last: dict = {}
    for position in range(n):
        key = keys[position]
        previous = last.get(key)
        if previous is not None:
            # Distinct documents touched strictly between the two
            # references = flagged weight in (previous, position); the
            # older reference then stops being the document's latest.
            distances[position] = float(
                tree.range_sum(previous + 1, position - 1))
            tree.add(previous, -tree.range_sum(previous, previous))
        tree.add(position, weights[position])
        last[key] = position
    return distances


@dataclass
class StackProfile:
    """Distance histogram plus the derived LRU hit-rate curve."""

    #: histogram[d] = number of references at stack distance d.
    histogram: Dict[int, int] = field(default_factory=dict)
    cold_misses: int = 0
    total_references: int = 0

    def hit_rate_at(self, capacity_documents: int) -> float:
        """Exact LRU hit rate with a ``capacity_documents``-entry cache."""
        if self.total_references == 0:
            return 0.0
        hits = sum(count for distance, count in self.histogram.items()
                   if distance < capacity_documents)
        return hits / self.total_references

    def curve(self, capacities: Iterable[int]) -> List[tuple]:
        """(capacity, exact hit rate) points, computed incrementally."""
        ordered = sorted(set(capacities))
        if not ordered:
            return []
        points = []
        hits = 0
        boundary = 0
        distances = sorted(self.histogram)
        index = 0
        for capacity in ordered:
            while index < len(distances) and distances[index] < capacity:
                hits += self.histogram[distances[index]]
                index += 1
            boundary = capacity
            rate = hits / self.total_references \
                if self.total_references else 0.0
            points.append((boundary, rate))
        return points

    @property
    def compulsory_miss_rate(self) -> float:
        """Cold misses / references: the floor no cache size removes."""
        if self.total_references == 0:
            return 0.0
        return self.cold_misses / self.total_references


def stack_profile(requests: Sequence[Request],
                  doc_type: Optional[DocumentType] = None) -> StackProfile:
    """Build a :class:`StackProfile`, optionally for one document type.

    Distances are always computed over the *full* interleaved stream
    (an LRU cache holds every type); ``doc_type`` only selects which
    requests' distances are counted, mirroring the paper's per-type
    hit-rate definition.
    """
    profile = StackProfile()
    distances = stack_distances(requests)
    for request, distance in zip(requests, distances):
        if doc_type is not None and request.doc_type is not doc_type:
            continue
        profile.total_references += 1
        if distance is COLD or math.isinf(distance):
            profile.cold_misses += 1
        else:
            key = int(distance)
            profile.histogram[key] = profile.histogram.get(key, 0) + 1
    return profile


def approximate_byte_curve(requests: Sequence[Request],
                           capacities_bytes: Iterable[int]
                           ) -> List[tuple]:
    """Approximate LRU hit-rate curve for *byte*-bounded caches.

    One byte-weighted stack pass; a request is scored a hit at
    capacity B iff its byte distance plus its own size fits in B.
    Accurate to within the eviction-boundary granularity (a few
    documents' worth of bytes); the tests pin the error against the
    exact simulator.
    """
    ordered = sorted(set(capacities_bytes))
    if not ordered:
        return []
    distances = stack_distances(requests, byte_weighted=True)
    totals = [0] * len(ordered)
    counted = 0
    for request, distance in zip(requests, distances):
        counted += 1
        if math.isinf(distance):
            continue
        needed = distance + request.size
        for index, capacity in enumerate(ordered):
            if needed <= capacity:
                totals[index] += 1
    if counted == 0:
        return [(capacity, 0.0) for capacity in ordered]
    return [(capacity, hits / counted)
            for capacity, hits in zip(ordered, totals)]


def profiles_by_type(requests: Sequence[Request]
                     ) -> Dict[Optional[DocumentType], StackProfile]:
    """One pass, all profiles: overall (key None) plus one per type."""
    profiles: Dict[Optional[DocumentType], StackProfile] = {
        None: StackProfile()}
    for doc_type in DOCUMENT_TYPES:
        profiles[doc_type] = StackProfile()
    distances = stack_distances(requests)
    for request, distance in zip(requests, distances):
        for profile in (profiles[None], profiles[request.doc_type]):
            profile.total_references += 1
            if math.isinf(distance):
                profile.cold_misses += 1
            else:
                key = int(distance)
                profile.histogram[key] = profile.histogram.get(key, 0) + 1
    return profiles
