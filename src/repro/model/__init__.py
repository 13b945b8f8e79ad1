"""Analytical cache models: hit rates without a trace pass.

The paper's methodology — and everything under :mod:`repro.simulation`
— is trace-driven: every hit-rate number costs one pass over the
workload (or, since the shared-pass engine, one pass per *grid*).  This
package answers the same questions in microseconds from the workload's
*statistics* alone, using the characteristic-time (Che) approximation
and its TTL-cache generalizations:

* LRU ≈ a TTL cache with a deterministic timer that resets on every
  hit: a document requested with probability ``p`` hits with
  probability ``1 − exp(−p·T_C)`` (Che, Tung & Wang 2002).
* FIFO and RANDOM ≈ TTL caches whose timer does *not* reset; both hit
  with probability ``p·T_C / (1 + p·T_C)`` — and indeed FIFO and
  RANDOM have identical IRM hit rates (Gelenbe 1973; Gallo et al.
  2012).

The characteristic time ``T_C`` is the unique root of the byte-weighted
occupancy constraint ``Σ_i size_i · h_i(T) = capacity_bytes``, so
predictions live in the same bytes units as
:class:`~repro.simulation.simulator.CacheSimulator`
(:mod:`repro.model.solver`).  Calibration reads a trace's columns
(:func:`~repro.trace.columnar.columns_of`; an ``.rcol`` file in place)
— or no trace at all, from a
:class:`~repro.workload.profiles.WorkloadProfile`
(:mod:`repro.model.catalog`); predictions decompose per document type
and extend to a two-level hierarchy (:mod:`repro.model.che`); and a
validation harness scores the model against
:func:`repro.simulation.engine.run_cells` grids
(:mod:`repro.model.validation`).

Quickstart::

    from repro import dfn_like, generate_trace
    from repro.model import catalog_from_trace, hit_rate_curve

    trace = generate_trace(dfn_like(scale=1 / 256), temporal_model="irm")
    catalog = catalog_from_trace(trace)      # or a path to an .rcol
    for pred in hit_rate_curve(catalog, [2**20, 2**22, 2**24]):
        print(pred.capacity_bytes, pred.hit_rate, pred.byte_hit_rate)

The approximation assumes the Independent Reference Model; see
docs/guide.md ("Analytical models") for when to trust it — in short:
the stronger the paper's temporal correlation β, the more the model
flatters recency-based policies' competition.
"""

from repro.model.catalog import (
    Catalog,
    catalog_from_counts,
    catalog_from_profile,
    catalog_from_trace,
)
from repro.model.che import (
    HierarchyPrediction,
    ModelPrediction,
    TypePrediction,
    hierarchy_predict,
    hit_rate_curve,
    predict,
)
from repro.model.solver import (
    MODEL_POLICIES,
    SolverResult,
    hit_probabilities,
    occupancy_bytes,
    solve_characteristic_time,
    solve_curve,
)
from repro.model.validation import (
    ValidationCell,
    ValidationReport,
    validate_model,
)

#: Unambiguous alias for the package-root namespace
#: (``repro.predict_hit_rates``); inside ``repro.model`` the short
#: :func:`predict` reads fine.
predict_hit_rates = predict

__all__ = [
    # catalog
    "Catalog", "catalog_from_counts", "catalog_from_profile",
    "catalog_from_trace",
    # solver
    "MODEL_POLICIES", "SolverResult", "hit_probabilities",
    "occupancy_bytes", "solve_characteristic_time", "solve_curve",
    # predictors
    "ModelPrediction", "TypePrediction", "HierarchyPrediction",
    "predict", "predict_hit_rates", "hit_rate_curve",
    "hierarchy_predict",
    # validation
    "ValidationCell", "ValidationReport", "validate_model",
]
