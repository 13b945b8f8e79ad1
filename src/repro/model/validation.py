"""Model-vs-simulation validation harness.

An approximation is only useful with a measured error bar.  This
harness runs the two stacks against the *same* workload —

* the analytical side: one :func:`~repro.model.catalog.catalog_from_trace`
  calibration from the trace's columns, then :func:`~repro.model.che.hit_rate_curve` per
  policy (microseconds per cell);
* the simulated side: every (policy, capacity) cell rides **one**
  shared :func:`repro.simulation.engine.run_cells` pass —

and emits a structured error report: per-cell absolute hit-rate and
byte-hit-rate errors, per-document-type breakdowns, and mean/max
aggregates, through the observability layer (``model_validated``
telemetry event, ``model_validation_abs_error`` histogram).  CI runs
this in smoke mode and fails when the LRU mean absolute error exceeds
its tolerance; see :mod:`repro.model.cli` (``validate --max-mae``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.model.catalog import Catalog, catalog_from_trace
from repro.model.che import (HierarchyPrediction, ModelPrediction,
                             hierarchy_predict, hit_rate_curve)
from repro.model.solver import normalize_policy
from repro.observability.events import emit
from repro.observability.metrics import get_registry
from repro.simulation.engine import SimulationConfig, run_cells
from repro.simulation.results import SimulationResult
from repro.simulation.sweep import PAPER_SIZE_FRACTIONS
from repro.trace.columnar import columns_of
from repro.types import DOCUMENT_TYPES, DocumentType, Trace

#: Default policy set: every policy the analytical model covers.
DEFAULT_POLICIES = ("lru", "fifo", "random")


@dataclass(frozen=True)
class ValidationCell:
    """Model vs simulator at one (policy, capacity) cell."""

    policy: str
    capacity_bytes: int
    predicted_hit_rate: float
    simulated_hit_rate: float
    predicted_byte_hit_rate: float
    simulated_byte_hit_rate: float
    per_type: Dict[DocumentType, dict] = field(default_factory=dict)

    @property
    def hit_rate_error(self) -> float:
        return abs(self.predicted_hit_rate - self.simulated_hit_rate)

    @property
    def byte_hit_rate_error(self) -> float:
        return abs(self.predicted_byte_hit_rate
                   - self.simulated_byte_hit_rate)

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "capacity_bytes": self.capacity_bytes,
            "predicted_hit_rate": self.predicted_hit_rate,
            "simulated_hit_rate": self.simulated_hit_rate,
            "hit_rate_error": self.hit_rate_error,
            "predicted_byte_hit_rate": self.predicted_byte_hit_rate,
            "simulated_byte_hit_rate": self.simulated_byte_hit_rate,
            "byte_hit_rate_error": self.byte_hit_rate_error,
            "per_type": {t.value: entry
                         for t, entry in self.per_type.items()},
        }


@dataclass
class ValidationReport:
    """The structured model-error report over a policy × capacity grid."""

    trace_name: str
    total_requests: int
    warmup_fraction: float
    cells: List[ValidationCell] = field(default_factory=list)

    @property
    def mean_absolute_error(self) -> float:
        """Hit-rate MAE over every cell of the grid."""
        if not self.cells:
            return 0.0
        return sum(c.hit_rate_error for c in self.cells) / len(self.cells)

    @property
    def max_absolute_error(self) -> float:
        if not self.cells:
            return 0.0
        return max(c.hit_rate_error for c in self.cells)

    @property
    def byte_mean_absolute_error(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.byte_hit_rate_error
                   for c in self.cells) / len(self.cells)

    def policy_mean_absolute_error(self, policy: str) -> float:
        """Hit-rate MAE restricted to one policy's capacity ladder."""
        cells = [c for c in self.cells if c.policy == policy]
        if not cells:
            raise ConfigurationError(
                f"no validation cells for policy {policy!r}")
        return sum(c.hit_rate_error for c in cells) / len(cells)

    @property
    def policies(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.policy not in seen:
                seen.append(cell.policy)
        return seen

    def as_dict(self) -> dict:
        return {
            "trace_name": self.trace_name,
            "total_requests": self.total_requests,
            "warmup_fraction": self.warmup_fraction,
            "mean_absolute_error": self.mean_absolute_error,
            "max_absolute_error": self.max_absolute_error,
            "byte_mean_absolute_error": self.byte_mean_absolute_error,
            "per_policy_mean_absolute_error": {
                policy: self.policy_mean_absolute_error(policy)
                for policy in self.policies},
            "cells": [cell.as_dict() for cell in self.cells],
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    def text(self) -> str:
        """Human-readable error table."""
        lines = [
            f"Model validation on {self.trace_name!r} "
            f"({self.total_requests:,} requests, "
            f"warmup {self.warmup_fraction:.0%})",
            f"{'policy':<8} {'capacity':>14} {'sim hr':>8} "
            f"{'model hr':>9} {'|err|':>7}   {'sim bhr':>8} "
            f"{'model bhr':>9} {'|err|':>7}",
        ]
        for c in self.cells:
            lines.append(
                f"{c.policy:<8} {c.capacity_bytes:>14,} "
                f"{c.simulated_hit_rate:>8.4f} "
                f"{c.predicted_hit_rate:>9.4f} "
                f"{c.hit_rate_error:>7.4f}   "
                f"{c.simulated_byte_hit_rate:>8.4f} "
                f"{c.predicted_byte_hit_rate:>9.4f} "
                f"{c.byte_hit_rate_error:>7.4f}")
        lines.append(
            f"hit-rate MAE {self.mean_absolute_error:.4f}  "
            f"max {self.max_absolute_error:.4f}  "
            f"byte-hit-rate MAE {self.byte_mean_absolute_error:.4f}")
        for policy in self.policies:
            lines.append(
                f"  {policy:<8} MAE "
                f"{self.policy_mean_absolute_error(policy):.4f}")
        return "\n".join(lines)


#: Default (child, parent) capacity-fraction ladder for the hierarchy
#: validation: parents four times their children, spanning the small-
#: cache regime the paper sweeps.
HIERARCHY_FRACTION_PAIRS = ((0.002, 0.008), (0.005, 0.02),
                            (0.01, 0.04), (0.02, 0.08))


@dataclass(frozen=True)
class HierarchyValidationCell:
    """Tandem-queue model vs network simulator at one capacity pair."""

    policy: str
    child_capacity_bytes: int
    parent_capacity_bytes: int
    predicted: HierarchyPrediction
    simulated_child_hit_rate: float
    simulated_parent_hit_rate: float
    simulated_combined_hit_rate: float
    simulated_combined_byte_hit_rate: float

    @property
    def combined_error(self) -> float:
        """|model − simulator| on the hierarchy (origin off-load)
        hit rate — the quantity the CI gate bounds."""
        return abs(self.predicted.combined_hit_rate
                   - self.simulated_combined_hit_rate)

    @property
    def child_error(self) -> float:
        return abs(self.predicted.child.hit_rate
                   - self.simulated_child_hit_rate)

    @property
    def parent_error(self) -> float:
        return abs(self.predicted.parent.hit_rate
                   - self.simulated_parent_hit_rate)

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "child_capacity_bytes": self.child_capacity_bytes,
            "parent_capacity_bytes": self.parent_capacity_bytes,
            "predicted_child_hit_rate": self.predicted.child.hit_rate,
            "predicted_parent_hit_rate": self.predicted.parent.hit_rate,
            "predicted_combined_hit_rate":
                self.predicted.combined_hit_rate,
            "predicted_combined_byte_hit_rate":
                self.predicted.combined_byte_hit_rate,
            "simulated_child_hit_rate": self.simulated_child_hit_rate,
            "simulated_parent_hit_rate": self.simulated_parent_hit_rate,
            "simulated_combined_hit_rate":
                self.simulated_combined_hit_rate,
            "simulated_combined_byte_hit_rate":
                self.simulated_combined_byte_hit_rate,
            "combined_error": self.combined_error,
            "child_error": self.child_error,
            "parent_error": self.parent_error,
        }


@dataclass
class HierarchyValidationReport:
    """Tandem model errors over a (policy × capacity-pair) grid."""

    trace_name: str
    total_requests: int
    n_children: int
    warmup_fraction: float
    cells: List[HierarchyValidationCell] = field(default_factory=list)

    @property
    def mean_absolute_error(self) -> float:
        """Combined-hit-rate MAE over the grid (the CI-gated bound)."""
        if not self.cells:
            return 0.0
        return sum(c.combined_error for c in self.cells) / len(self.cells)

    @property
    def max_absolute_error(self) -> float:
        if not self.cells:
            return 0.0
        return max(c.combined_error for c in self.cells)

    @property
    def child_mean_absolute_error(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.child_error for c in self.cells) / len(self.cells)

    @property
    def parent_mean_absolute_error(self) -> float:
        if not self.cells:
            return 0.0
        return sum(c.parent_error for c in self.cells) / len(self.cells)

    def as_dict(self) -> dict:
        return {
            "trace_name": self.trace_name,
            "total_requests": self.total_requests,
            "n_children": self.n_children,
            "warmup_fraction": self.warmup_fraction,
            "mean_absolute_error": self.mean_absolute_error,
            "max_absolute_error": self.max_absolute_error,
            "child_mean_absolute_error": self.child_mean_absolute_error,
            "parent_mean_absolute_error":
                self.parent_mean_absolute_error,
            "cells": [cell.as_dict() for cell in self.cells],
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    def text(self) -> str:
        lines = [
            f"Hierarchy model validation on {self.trace_name!r} "
            f"({self.total_requests:,} requests, "
            f"{self.n_children} children, "
            f"warmup {self.warmup_fraction:.0%})",
            f"{'policy':<8} {'child cap':>12} {'parent cap':>12} "
            f"{'sim hr':>8} {'model hr':>9} {'|err|':>7}   "
            f"{'child |err|':>11} {'parent |err|':>12}",
        ]
        for c in self.cells:
            lines.append(
                f"{c.policy:<8} {c.child_capacity_bytes:>12,} "
                f"{c.parent_capacity_bytes:>12,} "
                f"{c.simulated_combined_hit_rate:>8.4f} "
                f"{c.predicted.combined_hit_rate:>9.4f} "
                f"{c.combined_error:>7.4f}   "
                f"{c.child_error:>11.4f} {c.parent_error:>12.4f}")
        lines.append(
            f"combined MAE {self.mean_absolute_error:.4f}  "
            f"max {self.max_absolute_error:.4f}  "
            f"child MAE {self.child_mean_absolute_error:.4f}  "
            f"parent MAE {self.parent_mean_absolute_error:.4f}")
        return "\n".join(lines)


def validate_hierarchy(trace: Trace,
                       policies: Sequence[str] = ("lru",),
                       fraction_pairs: Sequence[Sequence[float]]
                       = HIERARCHY_FRACTION_PAIRS,
                       n_children: int = 3,
                       warmup_fraction: float = 0.10,
                       catalog: Optional[Catalog] = None,
                       ) -> HierarchyValidationReport:
    """Score the two-level tandem predictor against the network engine.

    The analytical side is :func:`repro.model.che.hierarchy_predict`
    (child solved on the raw stream, parent on the normalized child
    miss stream, independence approximation); the simulated side is
    the network engine on a :func:`~repro.network.topology.two_level`
    topology under leave-copy-everywhere, the whole policy ×
    capacity-pair ladder in one
    :func:`~repro.network.engine.run_network_cells` call.

    The tandem model is per-child-count agnostic — under IRM each
    round-robin child substream keeps the popularity distribution, so
    one solved child stands for all ``n_children`` of them — which is
    why the comparison is meaningful for any ``n_children``.

    Returns the structured report; also emits a
    ``hierarchy_model_validated`` event and feeds per-cell combined
    errors into the ``hierarchy_validation_abs_error`` histogram.
    """
    from repro.network import NetworkConfig, run_network_cells, two_level
    from repro.simulation.sweep import cache_sizes_from_total

    policies = [normalize_policy(p) for p in policies]
    if not policies:
        raise ConfigurationError("need at least one policy")
    pairs = [tuple(pair) for pair in fraction_pairs]
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ConfigurationError(
            "fraction_pairs must be (child, parent) fraction pairs")
    trace = columns_of(trace)
    if catalog is None:
        catalog = catalog_from_trace(trace)

    report = HierarchyValidationReport(
        trace_name=catalog.name,
        total_requests=len(trace),
        n_children=n_children,
        warmup_fraction=warmup_fraction)
    registry = get_registry()
    total = trace.metadata().total_size_bytes
    # Each fraction alone: the sizing sorts and de-duplicates, which
    # would swap a descending pair and collapse an equal one.
    sized = [[cache_sizes_from_total(total, [f])[0] for f in pair]
             for pair in pairs]
    grid = [(policy, *sizes) for policy in policies for sizes in sized]
    simulated = run_network_cells(trace, [
        NetworkConfig(
            topology=two_level(child_cap, parent_cap,
                               child_policy=policy,
                               parent_policy=policy,
                               n_children=n_children),
            warmup_fraction=warmup_fraction)
        for policy, child_cap, parent_cap in grid])
    for (policy, child_cap, parent_cap), result in zip(grid, simulated):
        cell = HierarchyValidationCell(
            policy=policy,
            child_capacity_bytes=int(child_cap),
            parent_capacity_bytes=int(parent_cap),
            predicted=hierarchy_predict(
                catalog, child_cap, parent_cap, policy=policy),
            simulated_child_hit_rate=
            result.edge_metrics().overall.hit_rate,
            simulated_parent_hit_rate=
            result.nodes["parent"].metrics.overall.hit_rate,
            simulated_combined_hit_rate=result.hit_rate,
            simulated_combined_byte_hit_rate=result.byte_hit_rate,
        )
        report.cells.append(cell)
        if registry.enabled:
            registry.histogram(
                "hierarchy_validation_abs_error",
                policy=policy).observe(cell.combined_error)
    emit("hierarchy_model_validated", trace=report.trace_name,
         cells=len(report.cells),
         mean_absolute_error=round(report.mean_absolute_error, 6),
         max_absolute_error=round(report.max_absolute_error, 6))
    return report


def _type_errors(prediction: ModelPrediction,
                 simulated: SimulationResult) -> Dict[DocumentType, dict]:
    errors: Dict[DocumentType, dict] = {}
    for doc_type in DOCUMENT_TYPES:
        type_prediction = prediction.per_type.get(doc_type)
        if type_prediction is None:
            continue
        sim_hr = simulated.hit_rate(doc_type)
        sim_bhr = simulated.byte_hit_rate(doc_type)
        errors[doc_type] = {
            "predicted_hit_rate": type_prediction.hit_rate,
            "simulated_hit_rate": sim_hr,
            "hit_rate_error": abs(type_prediction.hit_rate - sim_hr),
            "predicted_byte_hit_rate": type_prediction.byte_hit_rate,
            "simulated_byte_hit_rate": sim_bhr,
            "byte_hit_rate_error": abs(
                type_prediction.byte_hit_rate - sim_bhr),
        }
    return errors


def validate_model(trace: Trace,
                   policies: Sequence[str] = DEFAULT_POLICIES,
                   capacities: Optional[Sequence[int]] = None,
                   fractions: Sequence[float] = PAPER_SIZE_FRACTIONS,
                   warmup_fraction: float = 0.0,
                   catalog: Optional[Catalog] = None,
                   ) -> ValidationReport:
    """Score the analytical model against a shared-pass simulation grid.

    Args:
        trace: The workload: anything
            :func:`~repro.trace.columnar.columns_of` takes, whose
            columns both stacks read (gathered once, or an ``.rcol``
            read in place).
        policies: Model-covered policy names; each gets the full
            capacity ladder.
        capacities: Byte capacities; defaults to ``fractions`` of the
            trace's distinct-document bytes (the paper's ladder).
        warmup_fraction: Applied identically to both stacks.  The
            default 0 measures the whole trace — the regime where the
            model's compulsory-miss correction is exact rather than
            approximated.
        catalog: Pre-calibrated catalog (skips the calibration pass).

    Returns the structured :class:`ValidationReport`; also emits a
    ``model_validated`` telemetry event and feeds per-cell errors into
    the ``model_validation_abs_error`` histogram.
    """
    from repro.simulation.sweep import cache_sizes_from_fractions

    policies = [normalize_policy(p) for p in policies]
    if not policies:
        raise ConfigurationError("need at least one policy")
    trace = columns_of(trace)
    if capacities is None:
        capacities = cache_sizes_from_fractions(trace, fractions)
    if not capacities:
        raise ConfigurationError("need at least one capacity")

    if catalog is None:
        catalog = catalog_from_trace(trace)

    configs = [
        SimulationConfig(capacity_bytes=capacity, policy=policy,
                         warmup_fraction=warmup_fraction)
        for policy in policies for capacity in capacities
    ]
    simulated = run_cells(trace, configs)

    report = ValidationReport(
        trace_name=catalog.name,
        total_requests=len(trace),
        warmup_fraction=warmup_fraction)
    registry = get_registry()
    index = 0
    for policy in policies:
        predictions = hit_rate_curve(catalog, capacities, policy=policy,
                                     warmup_fraction=warmup_fraction)
        for prediction in predictions:
            result = simulated[index]
            index += 1
            cell = ValidationCell(
                policy=policy,
                capacity_bytes=int(result.capacity_bytes),
                predicted_hit_rate=prediction.hit_rate,
                simulated_hit_rate=result.hit_rate(),
                predicted_byte_hit_rate=prediction.byte_hit_rate,
                simulated_byte_hit_rate=result.byte_hit_rate(),
                per_type=_type_errors(prediction, result),
            )
            report.cells.append(cell)
            if registry.enabled:
                registry.histogram(
                    "model_validation_abs_error",
                    policy=policy).observe(cell.hit_rate_error)
    emit("model_validated", trace=report.trace_name,
         cells=len(report.cells),
         mean_absolute_error=round(report.mean_absolute_error, 6),
         max_absolute_error=round(report.max_absolute_error, 6))
    return report
