"""Model calibration: the document catalog.

Every analytical predictor in this package consumes a :class:`Catalog`
— parallel numpy arrays of per-document request probabilities, sizes,
and document types, the sufficient statistic of a workload under the
Independent Reference Model.  Three calibration routes:

* :func:`catalog_from_trace` — column operations over the trace's
  :func:`~repro.trace.columnar.columns_of` (an ``.rcol`` is read in
  place, anything else gathered once).  Keeps the empirical
  per-document request counts, which lets the predictors correct for
  compulsory (cold) misses on a finite trace.
* :func:`catalog_from_profile` — no trace at all: synthesizes the
  catalog a :class:`~repro.workload.profiles.WorkloadProfile` *would*
  generate, using the same per-type Zipf(α) count allocation as the
  trace generator.  Warns through the fit diagnostics attached by
  :func:`repro.workload.fitting.fit_profile` when a fitted profile's
  parameters are thin or clamped.
* :func:`catalog_from_counts` — raw arrays, for tests and for
  popularity laws obtained elsewhere (e.g.
  :func:`repro.analysis.popularity.popularity_counts`).
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.observability.events import emit
from repro.observability.logs import get_logger
from repro.trace.columnar import columns_of
from repro.types import DOCUMENT_TYPES, DocumentType
from repro.workload.profiles import WorkloadProfile
from repro.workload.zipf import zipf_counts

_logger = get_logger("model")

#: Stable integer code per document type (index into DOCUMENT_TYPES).
TYPE_CODES: Dict[DocumentType, int] = {
    t: i for i, t in enumerate(DOCUMENT_TYPES)}


class Catalog:
    """The IRM view of a workload: per-document popularity and size.

    Attributes:
        probabilities: Request probability per document (sums to 1).
        sizes: Document size in bytes (the cache-occupancy weight).
        type_codes: ``DOCUMENT_TYPES`` index per document.
        counts: Empirical request counts when calibrated from a trace
            (``None`` for purely distributional catalogs).  With counts
            present, predictors charge each document its one compulsory
            miss — the finite-trace correction.
        mean_transfers: Mean bytes transferred per request of each
            document (< size under interrupted transfers); defaults to
            ``sizes``.  Drives byte-hit-rate predictions in the same
            units the simulator counts.
        name: Workload label carried into predictions and reports.
    """

    def __init__(self, probabilities: np.ndarray, sizes: np.ndarray,
                 type_codes: np.ndarray,
                 counts: Optional[np.ndarray] = None,
                 mean_transfers: Optional[np.ndarray] = None,
                 name: str = "catalog"):
        self.probabilities = np.asarray(probabilities, dtype=np.float64)
        self.sizes = np.asarray(sizes, dtype=np.float64)
        self.type_codes = np.asarray(type_codes, dtype=np.int64)
        self.counts = (None if counts is None
                       else np.asarray(counts, dtype=np.float64))
        self.mean_transfers = (self.sizes if mean_transfers is None
                               else np.asarray(mean_transfers,
                                               dtype=np.float64))
        self.name = name
        self.validate()

    # -- invariants -------------------------------------------------------

    def validate(self) -> None:
        n = len(self.probabilities)
        if n == 0:
            raise ConfigurationError("catalog has no documents")
        for label, array in (("sizes", self.sizes),
                             ("type_codes", self.type_codes),
                             ("mean_transfers", self.mean_transfers)):
            if len(array) != n:
                raise ConfigurationError(
                    f"catalog arrays disagree: {n} probabilities vs "
                    f"{len(array)} {label}")
        if self.counts is not None and len(self.counts) != n:
            raise ConfigurationError(
                f"catalog arrays disagree: {n} probabilities vs "
                f"{len(self.counts)} counts")
        if np.any(self.probabilities < 0):
            raise ConfigurationError("negative request probability")
        total = float(self.probabilities.sum())
        if not np.isclose(total, 1.0, rtol=0, atol=1e-6):
            raise ConfigurationError(
                f"request probabilities sum to {total}, expected 1")
        if np.any(self.sizes < 0):
            raise ConfigurationError("negative document size")
        if (self.type_codes.min() < 0
                or self.type_codes.max() >= len(DOCUMENT_TYPES)):
            raise ConfigurationError("type code out of range")

    # -- views ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.probabilities)

    @property
    def n_documents(self) -> int:
        return len(self.probabilities)

    @property
    def total_bytes(self) -> float:
        """Bytes needed to hold every document (the working set)."""
        return float(self.sizes.sum())

    @property
    def total_requests(self) -> Optional[float]:
        return None if self.counts is None else float(self.counts.sum())

    def type_mask(self, doc_type: DocumentType) -> np.ndarray:
        return self.type_codes == TYPE_CODES[doc_type]

    def restrict(self, documents: np.ndarray,
                 name: str = "catalog") -> "Catalog":
        """An empirical catalog's ``documents`` (indices, in order)
        alone.

        Every array but the probabilities is per document, and those
        are the restricted counts renormalised, so the catalog
        restricted to the documents of a request subset equals
        :func:`catalog_from_trace` of that subset whenever each
        document's requests all lie in it (the subset's first-seen
        order being ``documents``' order).
        """
        counts = self.counts[documents]
        return Catalog(counts / counts.sum(), self.sizes[documents],
                       self.type_codes[documents], counts,
                       self.mean_transfers[documents], name)

    def as_dict(self) -> dict:
        """Summary (not the arrays) for manifests and telemetry."""
        summary = {
            "name": self.name,
            "documents": self.n_documents,
            "total_bytes": self.total_bytes,
            "calibration": ("empirical" if self.counts is not None
                            else "distributional"),
        }
        if self.counts is not None:
            summary["requests"] = self.total_requests
        return summary


def catalog_from_counts(
        counts: Union[Sequence[float], np.ndarray,
                      Mapping[str, int]],
        sizes: Union[Sequence[float], np.ndarray, float] = 1.0,
        doc_types: Union[Sequence[DocumentType], DocumentType, None]
        = None,
        name: str = "catalog") -> Catalog:
    """Catalog from per-document request counts.

    ``counts`` may be a mapping (as returned by
    :func:`repro.analysis.popularity.popularity_counts`) or a plain
    sequence.  ``sizes`` broadcasts a scalar (unit sizes model a
    document-granularity cache); ``doc_types`` broadcasts a single
    type and defaults to :attr:`DocumentType.OTHER`.
    """
    if isinstance(counts, Mapping):
        counts = list(counts.values())
    count_array = np.asarray(counts, dtype=np.float64)
    if count_array.ndim != 1 or len(count_array) == 0:
        raise ConfigurationError("counts must be a non-empty 1-d array")
    if np.any(count_array <= 0):
        raise ConfigurationError("every document needs a positive count")
    n = len(count_array)
    size_array = (np.full(n, float(sizes))
                  if np.isscalar(sizes) else
                  np.asarray(sizes, dtype=np.float64))
    if doc_types is None:
        doc_types = DocumentType.OTHER
    if isinstance(doc_types, DocumentType):
        code_array = np.full(n, TYPE_CODES[doc_types], dtype=np.int64)
    else:
        code_array = np.array([TYPE_CODES[t] for t in doc_types],
                              dtype=np.int64)
    return Catalog(
        probabilities=count_array / count_array.sum(),
        sizes=size_array,
        type_codes=code_array,
        counts=count_array,
        name=name,
    )


def catalog_from_trace(trace, name: Optional[str] = None) -> Catalog:
    """Calibrate a catalog from a trace's columns.

    Accepts anything :func:`~repro.trace.columnar.columns_of` does: a
    :class:`~repro.types.Trace`, a request iterable, an ``.rcol``
    (object or path, read in place: no ``Request`` is built) or a text
    trace path.  Documents come in first-seen order; a document's size
    and type are those of its last request — the convention
    :meth:`repro.types.Trace.metadata` uses — and its mean transfer
    clamps every transfer to the request's size exactly as the
    simulator clamps it.
    """
    columns = columns_of(trace)
    if not len(columns):
        raise ConfigurationError(
            "cannot calibrate a catalog from an empty trace")
    # One stable sort groups each document's rows in trace order.
    rows = np.argsort(columns.doc_ids, kind="stable")
    docs = columns.doc_ids[rows]
    starts = np.flatnonzero(np.r_[True, docs[1:] != docs[:-1]])
    ends = np.r_[starts[1:], len(rows)]
    seen = np.argsort(rows[starts])
    last = rows[ends - 1][seen]
    count_array = (ends - starts)[seen].astype(np.float64)
    transfers = np.add.reduceat(
        np.minimum(columns.transfers, columns.sizes)[rows], starts)[seen]
    catalog = Catalog(
        probabilities=count_array / count_array.sum(),
        sizes=columns.sizes[last].astype(np.float64),
        type_codes=columns.type_codes[last].astype(np.int64),
        counts=count_array,
        mean_transfers=transfers / count_array,
        name=name or columns.name,
    )
    emit("model_calibrated", documents=catalog.n_documents,
         requests=len(columns), source="trace")
    return catalog


def _warn_on_fit_diagnostics(profile: WorkloadProfile) -> None:
    """Surface thin/clamped fits before they silently steer the model."""
    diagnostics = getattr(profile, "fit_diagnostics", None)
    if diagnostics is None:
        return
    for doc_type, entry in diagnostics.by_type.items():
        problems = entry.problems()
        if problems:
            _logger.warning(
                "calibrating from profile %r: %s fit is unreliable "
                "(%s); model predictions for this type inherit the "
                "fallback/clamped parameters",
                profile.name, doc_type.value, ", ".join(problems),
                extra={"profile": profile.name,
                       "doc_type": doc_type.value,
                       "problems": problems})


def catalog_from_profile(profile: WorkloadProfile,
                         name: Optional[str] = None) -> Catalog:
    """Synthesize the catalog a workload profile would generate.

    Mirrors the trace generator's allocation: per-type document and
    request budgets split by the profile shares, per-rank counts from
    :func:`~repro.workload.zipf.zipf_counts`, sizes drawn from each
    type's size model with randomness derived from ``profile.seed``.
    No trace is generated — a million-request profile calibrates in
    milliseconds.
    """
    from repro.workload.generator import _allocate

    profile.validate()
    _warn_on_fit_diagnostics(profile)
    rng = random.Random(profile.seed)
    doc_budget = _allocate(
        profile.n_documents,
        {t: p.doc_share for t, p in profile.types.items()},
        minimum=1)
    request_budget = _allocate(
        profile.n_requests,
        {t: p.request_share for t, p in profile.types.items()},
        minimum=0)

    count_parts = []
    size_parts = []
    code_parts = []
    transfer_parts = []
    for doc_type, type_profile in sorted(
            profile.types.items(), key=lambda item: item[0].value):
        n_docs = doc_budget[doc_type]
        n_requests = request_budget[doc_type]
        if n_docs == 0 or n_requests == 0:
            continue
        if n_requests < n_docs:
            n_docs = n_requests
        counts = np.asarray(
            zipf_counts(n_docs, type_profile.alpha, n_requests),
            dtype=np.float64)
        sizes = np.array([type_profile.size_model.sample(rng)
                          for _ in range(n_docs)], dtype=np.float64)
        count_parts.append(counts)
        size_parts.append(sizes)
        code_parts.append(np.full(n_docs, TYPE_CODES[doc_type],
                                  dtype=np.int64))
        # Interrupted transfers move a uniform fraction of the
        # document on average (ChangeInjector draws U(5%, 95%); mean
        # one half), so the mean transfer shrinks accordingly.
        interrupted = type_profile.interruption_rate
        transfer_parts.append(sizes * (1.0 - 0.5 * interrupted))

    counts = np.concatenate(count_parts)
    catalog = Catalog(
        probabilities=counts / counts.sum(),
        sizes=np.concatenate(size_parts),
        type_codes=np.concatenate(code_parts),
        counts=counts,
        mean_transfers=np.concatenate(transfer_parts),
        name=name or profile.name,
    )
    emit("model_calibrated", documents=catalog.n_documents,
         requests=int(counts.sum()), source="profile")
    return catalog
