"""Hit-rate and byte-hit-rate accounting, per document type.

The paper's two performance measures:

* **hit rate** — hits / requests (the constant-cost objective);
* **byte hit rate** — bytes served from cache / bytes requested (the
  packet-cost objective).

Both are computed overall *and* per document type: "the hit rate on
images is calculated as the ratio between the number of hits on images
and the number of requested images."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.types import DOCUMENT_TYPES, DocumentType, Request


def measured_transfer(request: Request) -> int:
    """Bytes that cross the wire for one request.

    Interrupted transfers log fewer bytes than the document holds;
    both the hit and the miss move at most the document itself.  Every
    accounting site — single cache, hierarchy level, mesh proxy,
    network node — must clamp identically or byte-hit rates stop being
    comparable across engines.
    """
    return min(request.transfer_size, request.size)


@dataclass
class RateAccumulator:
    """Hit/byte-hit (and optional cost-savings) counters for one
    request population.

    The cost fields are only populated when the simulator is given a
    ``report_cost_model``: ``requested_cost`` accumulates c(p) over
    all requests and ``saved_cost`` over hits, so
    :attr:`cost_savings_ratio` is exactly the objective a Greedy-Dual
    policy under that cost model maximizes.
    """

    requests: int = 0
    hits: int = 0
    requested_bytes: int = 0
    hit_bytes: int = 0
    requested_cost: float = 0.0
    saved_cost: float = 0.0

    def record(self, hit: bool, transfer_bytes: int,
               cost: float = 0.0) -> None:
        self.requests += 1
        self.requested_bytes += transfer_bytes
        self.requested_cost += cost
        if hit:
            self.hits += 1
            self.hit_bytes += transfer_bytes
            self.saved_cost += cost

    @property
    def hit_rate(self) -> float:
        """Hits / requests; 0.0 for an empty population."""
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit_rate(self) -> float:
        """Hit bytes / requested bytes; 0.0 for an empty population."""
        if not self.requested_bytes:
            return 0.0
        return self.hit_bytes / self.requested_bytes

    @property
    def cost_savings_ratio(self) -> float:
        """Saved cost / total cost; 0.0 without cost accounting."""
        if not self.requested_cost:
            return 0.0
        return self.saved_cost / self.requested_cost

    def merge(self, other: "RateAccumulator") -> None:
        self.requests += other.requests
        self.hits += other.hits
        self.requested_bytes += other.requested_bytes
        self.hit_bytes += other.hit_bytes
        self.requested_cost += other.requested_cost
        self.saved_cost += other.saved_cost

    def as_dict(self) -> Dict[str, float]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "requested_bytes": self.requested_bytes,
            "hit_bytes": self.hit_bytes,
            "requested_cost": self.requested_cost,
            "saved_cost": self.saved_cost,
            "hit_rate": self.hit_rate,
            "byte_hit_rate": self.byte_hit_rate,
            "cost_savings_ratio": self.cost_savings_ratio,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "RateAccumulator":
        return cls(
            requests=int(data["requests"]),
            hits=int(data["hits"]),
            requested_bytes=int(data["requested_bytes"]),
            hit_bytes=int(data["hit_bytes"]),
            requested_cost=float(data.get("requested_cost", 0.0)),
            saved_cost=float(data.get("saved_cost", 0.0)),
        )


@dataclass
class TypeMetrics:
    """Overall plus per-document-type rate accumulators."""

    overall: RateAccumulator = field(default_factory=RateAccumulator)
    by_type: Dict[DocumentType, RateAccumulator] = field(
        default_factory=lambda: {t: RateAccumulator()
                                 for t in DOCUMENT_TYPES})

    def record(self, doc_type: DocumentType, hit: bool,
               transfer_bytes: int, cost: float = 0.0) -> None:
        self.overall.record(hit, transfer_bytes, cost)
        self.by_type[doc_type].record(hit, transfer_bytes, cost)

    def add(self, requested: Dict[DocumentType, list],
            hits: Dict[DocumentType, list]) -> None:
        """Fold in column totals: ``[requests, bytes]`` per type for
        one population's requested side and its hit side, as
        :meth:`repro.simulation.vectorized.Tally.totals` counts them.
        Integer sums, so this equals :meth:`record` once per request."""
        for doc_type, (count, nbytes) in requested.items():
            hit_count, hit_bytes = hits[doc_type]
            for acc in (self.overall, self.by_type[doc_type]):
                acc.requests += count
                acc.requested_bytes += nbytes
                acc.hits += hit_count
                acc.hit_bytes += hit_bytes

    def hit_rate(self, doc_type: DocumentType = None) -> float:
        if doc_type is None:
            return self.overall.hit_rate
        return self.by_type[doc_type].hit_rate

    def byte_hit_rate(self, doc_type: DocumentType = None) -> float:
        if doc_type is None:
            return self.overall.byte_hit_rate
        return self.by_type[doc_type].byte_hit_rate

    def cost_savings_ratio(self, doc_type: DocumentType = None) -> float:
        if doc_type is None:
            return self.overall.cost_savings_ratio
        return self.by_type[doc_type].cost_savings_ratio

    def merge(self, other: "TypeMetrics") -> None:
        """Fold another population into this one (integer sums, so
        merging per-node accumulators is exactly the single shared
        accumulator the legacy loops kept)."""
        self.overall.merge(other.overall)
        for doc_type, acc in other.by_type.items():
            mine = self.by_type.get(doc_type)
            if mine is None:
                mine = self.by_type[doc_type] = RateAccumulator()
            mine.merge(acc)

    def as_dict(self) -> dict:
        return {
            "overall": self.overall.as_dict(),
            "by_type": {t.value: acc.as_dict()
                        for t, acc in self.by_type.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TypeMetrics":
        metrics = cls(overall=RateAccumulator.from_dict(data["overall"]))
        for name, acc in data["by_type"].items():
            metrics.by_type[DocumentType(name)] = \
                RateAccumulator.from_dict(acc)
        return metrics
