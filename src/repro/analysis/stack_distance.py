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

Implementation: the exact array kernel
:func:`repro.simulation.vectorized.weighted_stack_distances` (the one
the simulator's LRU capacity ladder runs), ``⌈log2 n⌉`` levels of numpy
array operations over the trace with URLs interned to ints;
per-document-type distance histograms are array counts over its
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.vectorized import weighted_stack_distances
from repro.types import DOCUMENT_TYPES, DocumentType, Request

#: Stack distance reported for first references (cold misses).
COLD = math.inf


def _distance_columns(requests: Sequence[Request], byte_weighted: bool
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(distances, cold, weights)`` columns of a request list: URLs
    interned to ints, weights the sizes (``byte_weighted``) or ones."""
    interned: Dict[str, int] = {}
    keys = np.array([interned.setdefault(request.url, len(interned))
                     for request in requests], dtype=np.int64)
    if byte_weighted:
        sizes = [request.size for request in requests]
        try:
            weights = np.array(sizes, dtype=np.int64)
        except OverflowError:
            weights = np.array(sizes, dtype=object)
    else:
        weights = np.ones(len(keys), dtype=np.int64)
    distances, cold, _last = weighted_stack_distances(keys, weights)
    return distances, cold, weights


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
    distances, cold, _weights = _distance_columns(requests,
                                                  byte_weighted)
    values = distances.astype(np.float64).astype(object)
    values[cold] = COLD
    return values.tolist()


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
    distances, cold, _ones = _distance_columns(requests,
                                               byte_weighted=False)
    if doc_type is None:
        selected = np.ones(len(distances), dtype=bool)
    else:
        selected = np.array([request.doc_type is doc_type
                             for request in requests], dtype=bool)
    return _profile(distances, cold, selected)


def _profile(distances: np.ndarray, cold: np.ndarray,
             selected: np.ndarray) -> StackProfile:
    """The :class:`StackProfile` of the ``selected`` rows."""
    warm = distances[selected & ~cold]
    values, counts = np.unique(warm, return_counts=True)
    return StackProfile(
        histogram=dict(zip(values.tolist(), counts.tolist())),
        cold_misses=int(np.count_nonzero(selected & cold)),
        total_references=int(np.count_nonzero(selected)))


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
    if not requests:
        return [(capacity, 0.0) for capacity in ordered]
    distances, cold, sizes = _distance_columns(requests, byte_weighted=True)
    needed = np.sort((distances + sizes)[~cold])
    hits = np.searchsorted(needed, ordered, side="right").tolist()
    return [(capacity, count / len(requests))
            for capacity, count in zip(ordered, hits)]


def profiles_by_type(requests: Sequence[Request]
                     ) -> Dict[Optional[DocumentType], StackProfile]:
    """One pass, all profiles: overall (key None) plus one per type."""
    distances, cold, _ones = _distance_columns(requests,
                                               byte_weighted=False)
    codes = {doc_type: code for code, doc_type in enumerate(DOCUMENT_TYPES)}
    typed = np.array([codes[request.doc_type] for request in requests],
                     dtype=np.int64)
    profiles: Dict[Optional[DocumentType], StackProfile] = {
        None: _profile(distances, cold, np.ones(len(typed), dtype=bool))}
    for code, doc_type in enumerate(DOCUMENT_TYPES):
        profiles[doc_type] = _profile(distances, cold, typed == code)
    return profiles
