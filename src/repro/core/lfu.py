"""Least Frequently Used (no aging).

Evicts the resident document with the fewest references in its current
residency, breaking ties in admission order.  Plain LFU suffers from
*cache pollution*: documents that were hot once keep high counts forever
and crowd out the current working set — exactly the failure mode LFU-DA
(:mod:`repro.core.lfu_da`) fixes, which makes LFU the natural ablation
baseline for the aging mechanism.
"""

from __future__ import annotations

from repro.core.heap_policy import HeapPolicy
from repro.core.policy import CacheEntry


class LFUPolicy(HeapPolicy):
    """Min-heap on reference count, FIFO tie-break."""

    name = "lfu"

    def _key(self, entry: CacheEntry) -> int:
        return entry.frequency
