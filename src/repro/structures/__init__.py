"""Core data structures shared by policies and estimators.

* :class:`~repro.structures.dlist.DList` — intrusive doubly-linked list
  backing the LRU and FIFO policies (O(1) move-to-front / unlink).
* :class:`~repro.structures.addressable_heap.AddressableHeap` — min-heap
  on C ``heapq`` with lazy deletion, supporting key updates and removal
  by item; backs every value-based policy (the Greedy-Dual family,
  LFU-DA, LFU, SIZE, LRU-K, Landlord, Belady).
* :class:`~repro.structures.histogram.LogHistogram` — logarithmically
  binned counter used for reuse-distance distributions (β estimation).
* :mod:`~repro.structures.streaming` — Welford mean/variance and a P²
  quantile estimator for single-pass trace statistics.
* :class:`~repro.structures.reservoir.Reservoir` — uniform reservoir
  sampling for bounded-memory medians over full traces.
"""

from repro.structures.dlist import DList, DListNode
from repro.structures.fenwick import FenwickTree
from repro.structures.addressable_heap import AddressableHeap
from repro.structures.histogram import Histogram, LogHistogram
from repro.structures.streaming import P2Quantile, StreamingStats
from repro.structures.reservoir import Reservoir

__all__ = [
    "DList",
    "FenwickTree",
    "DListNode",
    "AddressableHeap",
    "Histogram",
    "LogHistogram",
    "P2Quantile",
    "StreamingStats",
    "Reservoir",
]
