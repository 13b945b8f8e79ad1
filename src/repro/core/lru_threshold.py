"""LRU-Threshold (Abrams et al.): LRU with a size admission filter.

Documents larger than the threshold are never cached; everything else
is plain LRU.  The crudest possible size-awareness — useful as the
lower bound against which GDS's continuous cost/size valuation is
measured, and historically what many production proxies actually
shipped (Squid's ``maximum_object_size``).
"""

from __future__ import annotations

from repro.core.lru import LRUPolicy
from repro.errors import ConfigurationError


class LRUThresholdPolicy(LRUPolicy):
    """LRU ordering; the admission decision lives in ``admits``.

    The cache consults :meth:`admits` before admitting (see
    :meth:`repro.core.cache.Cache.reference`); oversized documents are
    bypassed exactly like documents larger than the whole cache.
    """

    def __init__(self, threshold_bytes: int):
        super().__init__()
        if threshold_bytes <= 0:
            raise ConfigurationError("threshold_bytes must be positive")
        self.threshold_bytes = threshold_bytes
        self.name = "lru-threshold"

    def admits(self, size: int) -> bool:
        """Admission filter: False for documents above the threshold."""
        return size <= self.threshold_bytes
