"""GD* with per-document-type β estimation.

The paper's Section 4.4 diagnosis of GD*'s weakness on the RTP trace:

    "The slopes β of the distribution of temporal correlation for HTML,
    multi media, and application documents are much bigger than the
    overall slope ..., which is dominated by the slope of image
    documents.  This causes additional errors in replacement decisions
    performed by [GD*]."

The fix the paper implies but does not build: estimate β **per document
type** and age each document with its own type's exponent.  That is
exactly this policy — GD* (:mod:`repro.core.gdstar`) with one
:class:`~repro.core.beta_estimator.OnlineBetaEstimator` per
:class:`~repro.types.DocumentType`, so a multimedia document's strong
temporal correlation is no longer flattened by millions of
uncorrelated image references.  The ``ablation-typed-beta`` experiment
measures what the fix buys on the RTP-like workload.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.beta_estimator import OnlineBetaEstimator
from repro.core.cost import ConstantCost, CostModel
from repro.core.gdstar import base_value
from repro.core.heap_policy import GreedyDualPolicy
from repro.core.policy import CacheEntry
from repro.types import DOCUMENT_TYPES, DocumentType

EstimatorFactory = Callable[[], OnlineBetaEstimator]


class GDStarTypedPolicy(GreedyDualPolicy):
    """Greedy-Dual* with one online β estimator per document type."""

    def __init__(self, cost_model: CostModel = None,
                 estimator_factory: Optional[EstimatorFactory] = None):
        super().__init__()
        self.cost_model = cost_model or ConstantCost()
        self.name = f"gd*t({self.cost_model.tag.lower()})"
        factory = estimator_factory or OnlineBetaEstimator
        self.estimators: Dict[DocumentType, OnlineBetaEstimator] = {
            doc_type: factory() for doc_type in DOCUMENT_TYPES}
        self._clock = 0

    def beta(self, doc_type: DocumentType) -> float:
        """Current β estimate for one document type."""
        return self.estimators[doc_type].beta

    def _key(self, entry: CacheEntry) -> float:
        # As GDStarPolicy._key, with the entry's own type's estimator.
        self._clock = clock = self._clock + 1
        estimator = self.estimators[entry.doc_type]
        last = entry.policy_data
        if last is not None:
            estimator.observe(clock - last)
        entry.policy_data = clock
        size = entry.size or 1
        cost = self._hint_cost
        if cost is None:
            cost = self.cost_model.cost(size)
        return self.inflation + base_value(entry.frequency, cost, size,
                                           estimator.beta)

    def clear(self) -> None:
        super().clear()
        self._clock = 0
