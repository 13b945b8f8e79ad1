"""User-perceived latency accounting.

The paper frames the constant cost model as the choice of
"institutional proxy caches, which mainly aim at reducing end user
latency" — but reports hit rates, the proxy-side proxy for latency.
This module closes the loop: a :class:`LatencyModel` assigns each
request a service time (fast on hits, RTT + transmission on misses),
and the simulator aggregates mean latency per document type, so policy
comparisons can be read directly in milliseconds saved.

The model is deliberately first-order (fixed RTTs, fixed bandwidth, no
queueing): enough to rank policies and expose the hit-rate/latency
disconnect for large documents, without pretending to be a network
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.errors import ConfigurationError
from repro.structures.streaming import StreamingStats
from repro.types import DOCUMENT_TYPES, DocumentType


@dataclass(frozen=True)
class Link:
    """One network hop: propagation delay plus transmission bandwidth.

    The unit the cache-network engine (:mod:`repro.network`) sums over
    paths: every edge of a topology — client↔proxy, proxy↔parent,
    proxy↔sibling, top↔origin — is a ``Link``.  The single-cache
    :class:`LatencyModel` is the two-link special case
    (:meth:`LatencyModel.from_links`).
    """

    rtt: float
    bandwidth: float                         # bytes/second

    def __post_init__(self) -> None:
        if self.rtt <= 0:
            raise ConfigurationError("rtt must be positive")
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")

    def time(self, transfer_bytes: int) -> float:
        """Service time for a transfer crossing only this hop."""
        return self.rtt + transfer_bytes / self.bandwidth


def path_latency(links: Iterable[Link], transfer_bytes: int) -> float:
    """Service time along a multi-hop path.

    RTTs add; the transfer is charged once, at the path's bottleneck
    bandwidth (the model streams, it does not store-and-forward) — the
    generalization of :meth:`LatencyModel.miss_latency`, whose
    client+origin path bottlenecks at the origin link.  Summation is
    left-to-right so a one- or two-link path reproduces the
    single-cache model's floats exactly.
    """
    rtt = 0.0
    bottleneck = float("inf")
    for link in links:
        rtt += link.rtt
        if link.bandwidth < bottleneck:
            bottleneck = link.bandwidth
    return rtt + transfer_bytes / bottleneck


@dataclass(frozen=True)
class LatencyModel:
    """First-order service-time model.

    * hit:  ``hit_rtt`` + size / ``proxy_bandwidth`` (client↔proxy);
    * miss: ``hit_rtt`` + ``origin_rtt`` + size / ``origin_bandwidth``
      (the proxy must fetch before it can serve).

    Defaults sketch a 2001 institutional setup: 5 ms to the proxy on a
    10 Mbit/s LAN; 70 ms and 1.5 Mbit/s to origins.

    The hard-coded proxy/origin pair is the two-link special case of
    :func:`path_latency`; :meth:`from_links` builds the model from
    explicit :class:`Link` hops and :attr:`client_link` /
    :attr:`origin_link` recover them, which is how the cache-network
    engine shares one latency vocabulary with the single-cache path.
    """

    hit_rtt: float = 0.005
    origin_rtt: float = 0.070
    proxy_bandwidth: float = 1_250_000.0     # bytes/second
    origin_bandwidth: float = 187_500.0

    def __post_init__(self) -> None:
        for name in ("hit_rtt", "origin_rtt", "proxy_bandwidth",
                     "origin_bandwidth"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    @classmethod
    def from_links(cls, client: Link, origin: Link) -> "LatencyModel":
        """Build the single-cache model from its two hops."""
        return cls(hit_rtt=client.rtt, origin_rtt=origin.rtt,
                   proxy_bandwidth=client.bandwidth,
                   origin_bandwidth=origin.bandwidth)

    @property
    def client_link(self) -> Link:
        """The client↔proxy hop (the hit path)."""
        return Link(rtt=self.hit_rtt, bandwidth=self.proxy_bandwidth)

    @property
    def origin_link(self) -> Link:
        """The proxy↔origin hop (appended on misses)."""
        return Link(rtt=self.origin_rtt,
                    bandwidth=self.origin_bandwidth)

    def hit_latency(self, transfer_bytes: int) -> float:
        return self.hit_rtt + transfer_bytes / self.proxy_bandwidth

    def miss_latency(self, transfer_bytes: int) -> float:
        return (self.hit_rtt + self.origin_rtt
                + transfer_bytes / self.origin_bandwidth)


@dataclass
class LatencyMetrics:
    """Mean/total service time, overall and per type.

    The one service-time accumulator of the library.  The cache-network
    engine prices each request itself (a sum over the topology's
    :class:`Link` path) and feeds :meth:`add`; the single-cache
    simulator hands :meth:`record` a hit flag and lets ``model`` price
    it.
    """

    #: Prices :meth:`record` / :meth:`record_baseline`; ``None`` when
    #: the caller supplies seconds through :meth:`add`.
    model: Optional[LatencyModel] = None
    overall: StreamingStats = field(default_factory=StreamingStats)
    by_type: Dict[DocumentType, StreamingStats] = field(
        default_factory=lambda: {t: StreamingStats()
                                 for t in DOCUMENT_TYPES})
    #: What the same requests would have cost with every fetch going
    #: to the origin — the no-cache comparison point.  Recorded
    #: directly: deriving it from the means would need the hit split.
    baseline: StreamingStats = field(default_factory=StreamingStats)

    def add(self, doc_type: DocumentType, seconds: float) -> None:
        self.overall.add(seconds)
        self.by_type[doc_type].add(seconds)

    def record(self, doc_type: DocumentType, hit: bool,
               transfer_bytes: int) -> None:
        self.add(doc_type,
                 self.model.hit_latency(transfer_bytes) if hit
                 else self.model.miss_latency(transfer_bytes))

    def record_baseline(self, transfer_bytes: int) -> None:
        self.baseline.add(self.model.miss_latency(transfer_bytes))

    def mean_latency(self, doc_type: DocumentType = None) -> float:
        stats = self.overall if doc_type is None else self.by_type[doc_type]
        return stats.mean

    def total_latency(self, doc_type: DocumentType = None) -> float:
        stats = self.overall if doc_type is None else self.by_type[doc_type]
        return stats.total

    @property
    def speedup(self) -> float:
        """No-cache mean latency / achieved mean latency (≥ 1)."""
        achieved = self.overall.mean
        if not achieved or achieved != achieved:
            return 1.0
        return self.baseline.mean / achieved
