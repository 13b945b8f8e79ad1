"""Che-style hit-rate predictors over a calibrated catalog.

Glue between the characteristic-time solver and the questions the rest
of the library answers by simulation: overall and per-document-type
hit rate and byte hit rate at a byte capacity (:func:`predict`), whole
capacity→hit-rate curves (:func:`hit_rate_curve`, one solve per
capacity), and a two-level cache hierarchy under the standard
independence approximation (:func:`hierarchy_predict`).

Finite-trace correction
-----------------------

The raw Che formulas are *steady-state*: they ignore that on a real
(finite) trace every document's first request is a compulsory miss.
When the catalog carries empirical counts ``n_i`` (calibrated from a
trace), predictions charge that miss explicitly,

    hits_i = (n_i − 1) · h_i,

which is what lets a prediction line up with a
:func:`repro.simulation.engine.run_cells` measurement of the *same
trace* rather than of a hypothetical infinite one.  A non-zero
``warmup_fraction`` additionally drops the leading ``W`` share of
requests from both sides of the ratio the way the simulator does:
measured requests ≈ ``(1−W)·n_i`` and the compulsory miss only lands
in the measured window with probability ``(1−W)^{n_i}`` (all ``n_i``
IRM placements fall past the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.model.catalog import Catalog
from repro.model.solver import (
    SolverResult,
    hit_probabilities,
    normalize_policy,
    solve_characteristic_time,
    solve_curve,
)
from repro.observability.events import emit
from repro.types import DOCUMENT_TYPES, DocumentType


@dataclass(frozen=True)
class TypePrediction:
    """Predicted per-document-type rates at one capacity."""

    doc_type: DocumentType
    request_share: float
    hit_rate: float
    byte_hit_rate: float

    def as_dict(self) -> dict:
        return {
            "doc_type": self.doc_type.value,
            "request_share": self.request_share,
            "hit_rate": self.hit_rate,
            "byte_hit_rate": self.byte_hit_rate,
        }


@dataclass(frozen=True)
class ModelPrediction:
    """One analytical (policy, capacity) cell.

    The model twin of
    :class:`~repro.simulation.results.SimulationResult`: same units
    (bytes, rates in [0, 1]), same per-type decomposition, no trace
    pass.
    """

    policy: str
    capacity_bytes: float
    hit_rate: float
    byte_hit_rate: float
    characteristic_time: float
    converged: bool
    finite_trace: bool
    warmup_fraction: float
    catalog_name: str
    per_type: Dict[DocumentType, TypePrediction] = field(
        default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "capacity_bytes": self.capacity_bytes,
            "hit_rate": self.hit_rate,
            "byte_hit_rate": self.byte_hit_rate,
            "characteristic_time": (
                None if math.isinf(self.characteristic_time)
                else self.characteristic_time),
            "converged": self.converged,
            "finite_trace": self.finite_trace,
            "warmup_fraction": self.warmup_fraction,
            "catalog": self.catalog_name,
            "per_type": {t.value: p.as_dict()
                         for t, p in self.per_type.items()},
        }


class _CurveWeights:
    """Point-independent aggregation weights, hoisted out of the
    per-capacity loop (the curve-solving hot path): the per-document
    request weights, their finite-trace/warmup adjustment, and every
    per-type denominator are the same at every capacity — only the hit
    probabilities change."""

    def __init__(self, catalog: Catalog, warmup_fraction: float,
                 steady_state: bool):
        self.finite = catalog.counts is not None and not steady_state
        if self.finite:
            counts = catalog.counts
            if warmup_fraction > 0.0:
                survive = 1.0 - warmup_fraction
                requests = survive * counts
                # The compulsory miss reaches the measured window only
                # when every one of the document's IRM placements does.
                cold = survive ** counts
            else:
                requests = counts
                cold = 1.0
            self.hit_base = np.maximum(requests - cold, 0.0)
        else:
            # Steady state: weights are request probabilities.
            requests = catalog.probabilities
            self.hit_base = catalog.probabilities
        self.requests = requests
        self.requested_bytes = requests * catalog.mean_transfers
        codes = catalog.type_codes
        n_types = len(DOCUMENT_TYPES)
        # Per-type sums via bincount (one pass; beats boolean masks).
        self.docs_per_type = np.bincount(codes, minlength=n_types)
        self.requests_per_type = np.bincount(
            codes, weights=requests, minlength=n_types)
        self.bytes_per_type = np.bincount(
            codes, weights=self.requested_bytes, minlength=n_types)
        self.total_requests = float(requests.sum())
        self.total_bytes = float(self.requested_bytes.sum())


def _prediction_from_hits(catalog: Catalog, solved: SolverResult,
                          hit_probs: np.ndarray,
                          warmup_fraction: float,
                          steady_state: bool,
                          weights: Optional[_CurveWeights] = None,
                          ) -> ModelPrediction:
    """Aggregate per-document hit probabilities into one prediction."""
    if weights is None:
        weights = _CurveWeights(catalog, warmup_fraction, steady_state)
    hits = hit_probs * weights.hit_base
    hit_bytes = hits * catalog.mean_transfers

    codes = catalog.type_codes
    n_types = len(DOCUMENT_TYPES)
    hits_per_type = np.bincount(codes, weights=hits, minlength=n_types)
    hit_bytes_per_type = np.bincount(codes, weights=hit_bytes,
                                     minlength=n_types)

    per_type: Dict[DocumentType, TypePrediction] = {}
    total_requests = weights.total_requests
    for code, doc_type in enumerate(DOCUMENT_TYPES):
        if weights.docs_per_type[code] == 0:
            continue
        type_requests = float(weights.requests_per_type[code])
        type_bytes = float(weights.bytes_per_type[code])
        per_type[doc_type] = TypePrediction(
            doc_type=doc_type,
            request_share=(type_requests / total_requests
                           if total_requests else 0.0),
            hit_rate=(float(hits_per_type[code]) / type_requests
                      if type_requests else 0.0),
            byte_hit_rate=(float(hit_bytes_per_type[code]) / type_bytes
                           if type_bytes else 0.0),
        )
    return ModelPrediction(
        policy=solved.policy,
        capacity_bytes=solved.capacity_bytes,
        hit_rate=(float(hits_per_type.sum()) / total_requests
                  if total_requests else 0.0),
        byte_hit_rate=(float(hit_bytes_per_type.sum())
                       / weights.total_bytes
                       if weights.total_bytes else 0.0),
        characteristic_time=solved.characteristic_time,
        converged=solved.converged,
        finite_trace=weights.finite,
        warmup_fraction=warmup_fraction if weights.finite else 0.0,
        catalog_name=catalog.name,
        per_type=per_type,
    )


def _check_warmup(warmup_fraction: float) -> None:
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError("warmup_fraction must be in [0, 1)")


def predict(catalog: Catalog, capacity_bytes: float,
            policy: str = "lru", warmup_fraction: float = 0.0,
            steady_state: bool = False) -> ModelPrediction:
    """Predicted hit rates for one (policy, capacity) cell.

    Args:
        catalog: Calibrated workload statistics.
        capacity_bytes: Cache capacity, in the same bytes units as
            :class:`~repro.simulation.simulator.SimulationConfig`.
        policy: ``"lru"``, ``"fifo"``, or ``"random"``.
        warmup_fraction: Mirror of the simulator knob — the leading
            fraction of the trace excluded from measurement.  Only
            meaningful with an empirically calibrated catalog.
        steady_state: Force the infinite-trace formulas even when the
            catalog carries counts (capacity-planning view: what the
            hit rate converges to, compulsory misses amortized away).
    """
    _check_warmup(warmup_fraction)
    solved = solve_characteristic_time(
        catalog.probabilities, catalog.sizes, capacity_bytes,
        policy=policy)
    hit_probs = hit_probabilities(catalog.probabilities,
                                  solved.characteristic_time,
                                  solved.policy)
    prediction = _prediction_from_hits(catalog, solved, hit_probs,
                                       warmup_fraction, steady_state)
    emit("model_predicted", policy=prediction.policy,
         capacity_bytes=float(capacity_bytes),
         hit_rate=round(prediction.hit_rate, 6))
    return prediction


def hit_rate_curve(catalog: Catalog, capacities: Sequence[float],
                   policy: str = "lru", warmup_fraction: float = 0.0,
                   steady_state: bool = False) -> List[ModelPrediction]:
    """The whole capacity→(hit rate, byte hit rate) curve.

    One characteristic-time solve per capacity (warm-started along the
    ladder), zero trace passes: this is the capacity-planning loop the
    simulator answers in ``O(requests)`` per point, answered in
    microseconds per point.
    """
    _check_warmup(warmup_fraction)
    solved_ladder = solve_curve(catalog.probabilities, catalog.sizes,
                                capacities, policy=policy)
    weights = _CurveWeights(catalog, warmup_fraction, steady_state)
    predictions = []
    for solved in solved_ladder:
        hit_probs = hit_probabilities(catalog.probabilities,
                                      solved.characteristic_time,
                                      solved.policy)
        predictions.append(_prediction_from_hits(
            catalog, solved, hit_probs, warmup_fraction, steady_state,
            weights=weights))
    emit("model_curve_computed", policy=normalize_policy(policy),
         points=len(predictions))
    return predictions


@dataclass(frozen=True)
class HierarchyPrediction:
    """Two-level tandem prediction (child level 1, parent level 2).

    ``child``/``parent`` carry the per-level views: the child sees the
    raw stream; the parent's rates are over the requests that *missed*
    the child (the filtered, low-locality stream, exactly how
    :mod:`repro.network` reports an upstream node).  ``combined`` is
    the hit-at-either-level (origin off-load) view over all requests.
    """

    child: ModelPrediction
    parent: ModelPrediction
    combined_hit_rate: float
    combined_byte_hit_rate: float

    def as_dict(self) -> dict:
        return {
            "child": self.child.as_dict(),
            "parent": self.parent.as_dict(),
            "combined_hit_rate": self.combined_hit_rate,
            "combined_byte_hit_rate": self.combined_byte_hit_rate,
        }


def hierarchy_predict(catalog: Catalog, child_capacity_bytes: float,
                      parent_capacity_bytes: float,
                      policy: str = "lru") -> HierarchyPrediction:
    """Two-level hierarchy via the leave-copy-down independence
    approximation.

    Level 1 (child) is solved against the raw request probabilities.
    Its *miss stream* — document ``i`` escapes with rate
    ``p_i·(1 − h1_i)`` — is treated as an independent reference stream
    in its own right (the independence approximation; exact only in
    the limit, good whenever the child is not tiny) and drives the
    level-2 solve.  A document is served from the hierarchy when it
    hits at either level: ``h_i = h1_i + (1 − h1_i)·h2_i``.
    """
    child_solved = solve_characteristic_time(
        catalog.probabilities, catalog.sizes, child_capacity_bytes,
        policy=policy)
    h1 = hit_probabilities(catalog.probabilities,
                           child_solved.characteristic_time,
                           child_solved.policy)
    child = _prediction_from_hits(catalog, child_solved, h1, 0.0,
                                  steady_state=True)

    miss_rates = catalog.probabilities * (1.0 - h1)
    total_miss = float(miss_rates.sum())
    if total_miss <= 0.0:
        # The child absorbs everything; the parent is idle.
        parent_solved = solve_characteristic_time(
            catalog.probabilities, catalog.sizes,
            parent_capacity_bytes, policy=policy)
        parent = _prediction_from_hits(
            catalog, parent_solved,
            np.zeros_like(catalog.probabilities), 0.0,
            steady_state=True)
        return HierarchyPrediction(
            child=child, parent=parent,
            combined_hit_rate=child.hit_rate,
            combined_byte_hit_rate=child.byte_hit_rate)

    parent_catalog = Catalog(
        probabilities=miss_rates / total_miss,
        sizes=catalog.sizes,
        type_codes=catalog.type_codes,
        mean_transfers=catalog.mean_transfers,
        name=f"{catalog.name}-child-misses",
    )
    parent_solved = solve_characteristic_time(
        parent_catalog.probabilities, parent_catalog.sizes,
        parent_capacity_bytes, policy=policy)
    h2 = hit_probabilities(parent_catalog.probabilities,
                           parent_solved.characteristic_time,
                           parent_solved.policy)
    parent = _prediction_from_hits(parent_catalog, parent_solved, h2,
                                   0.0, steady_state=True)

    combined = h1 + (1.0 - h1) * h2
    weights = catalog.probabilities
    transfers = catalog.mean_transfers
    requested_bytes = float((weights * transfers).sum())
    return HierarchyPrediction(
        child=child,
        parent=parent,
        combined_hit_rate=float((weights * combined).sum()),
        combined_byte_hit_rate=(
            float((weights * combined * transfers).sum())
            / requested_bytes if requested_bytes else 0.0),
    )
