"""The cache-network engine: one routing core for every topology.

One request's life, regardless of topology shape:

1. the request arrives at its client population's edge cache
   (round-robin over :attr:`Topology.edges`: interleaved user
   populations that share interests);
2. the engine walks the cache path toward the origin until some cache
   holds the document at its current size — a stale copy (size
   changed) is dropped where it is found; url, size and type come a
   chunk at a time from the trace's columns, never a request object;
3. if the whole vertical path misses and the edge belongs to the
   sibling ring, the siblings are probed in ring order (ICP);
4. the placement strategy (:mod:`repro.network.strategies`) decides
   which of the missed caches admit a copy of the fetched document;
5. the walk notes one small int — the depth that served, −1 for an
   origin fetch, −2 for a sibling serve.

That served-depth column is all an engine yields, besides its
end-of-run cache counters: the walk here and the LCE cascade in
:mod:`repro.network.fastpath` both hand theirs to :func:`account`.  A
request reaches its path down to the depth that served it and hits
only there, so the per-node and network tallies are masked sums over
the trace's columns, counted past the warm-up by the same
:class:`~repro.simulation.vectorized.Tally` the single-cache pass
uses; the (optional) end-to-end latency over the
:class:`~repro.simulation.latency.Link` paths, whose running means
depend on order, is a left fold over the same column in trace order.

Under leave-copy-everywhere the walk probes with
``Cache.reference()`` — probe and admit in one call; the goldens under
``tests/network/data/`` pin the resulting two-level and sibling-mesh
outputs byte-for-byte across the whole policy registry.

The engine is policy-agnostic (any name from
:data:`repro.core.registry.POLICY_NAMES`, or pre-built policy
instances) and emits run-level telemetry through
:mod:`repro.observability`: one span per run, counters and histograms
batched after the loop, never per request.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.cache import Cache
from repro.core.policy import AccessOutcome, ReplacementPolicy
from repro.core.registry import make_policy
from repro.errors import ConfigurationError
from repro.network.strategies import PlacementStrategy, make_strategy
from repro.network.topology import NodeSpec, Topology
from repro.observability.events import emit
from repro.observability.metrics import get_registry
from repro.observability.trace import span as _span
from repro.simulation.latency import LatencyMetrics, path_latency
from repro.simulation.metrics import TypeMetrics
from repro.simulation.vectorized import Tally, decode_chunks
from repro.structures.streaming import StreamingStats
from repro.trace.columnar import columns_of
from repro.types import DOCUMENT_TYPES, DocumentType


@dataclass
class NetworkConfig:
    """One network simulation cell: shape × placement × behaviour."""

    topology: Topology
    strategy: Union[str, PlacementStrategy] = "lce"
    warmup_fraction: float = 0.10
    #: Record end-to-end service times over the topology's links.
    #: Off by default: priced after the run by either engine, as a fold
    #: over the served-depth column (two link paths per measured row).
    measure_latency: bool = False
    #: After a sibling serves, keep a copy at the home cache too (the
    #: bandwidth-hungry ICP variant).
    replicate_on_sibling_hit: bool = True
    #: When set, node i's policy is built with ``seed=policy_seed+i``
    #: where the policy accepts a seed — distinct randomized policies
    #: per node, deterministic per run.
    policy_seed: Optional[int] = None

    def validate(self) -> None:
        self.topology.validate()
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError(
                "warmup_fraction must be in [0, 1)")
        if isinstance(self.strategy, str):
            make_strategy(self.strategy)          # raises on unknown

    @property
    def strategy_name(self) -> str:
        if isinstance(self.strategy, str):
            return self.strategy
        return self.strategy.name


@dataclass
class NodeResult:
    """One cache node's view of a run."""

    name: str
    level: int
    capacity_bytes: int
    policy: str
    #: Accounted over the requests that *reached* this node post-
    #: warmup: every request for an edge node, the local miss stream
    #: for an upstream node — the filtered stream a parent proxy's
    #: own log would show.
    metrics: TypeMetrics = field(default_factory=TypeMetrics)
    #: Raw cache counters over the whole run, warmup included.
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bypasses: int = 0
    invalidations: int = 0
    used_bytes: int = 0
    #: Resident bytes per document type at end of run — the placement
    #: snapshot the per-type placement report reads.
    placement: Dict[DocumentType, int] = field(
        default_factory=lambda: {t: 0 for t in DOCUMENT_TYPES})
    #: Service times experienced by this edge node's client
    #: population (empty for non-edge nodes or latency-off runs).
    latency: StreamingStats = field(default_factory=StreamingStats)

    @property
    def occupancy(self) -> float:
        return self.used_bytes / self.capacity_bytes \
            if self.capacity_bytes else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "level": self.level,
            "capacity_bytes": self.capacity_bytes,
            "policy": self.policy,
            "metrics": self.metrics.as_dict(),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "invalidations": self.invalidations,
            "used_bytes": self.used_bytes,
            "occupancy": self.occupancy,
            "placement": {t.value: b for t, b in self.placement.items()},
        }


@dataclass
class NetworkResult:
    """Outcome of one network run."""

    config: NetworkConfig
    trace_name: str = "trace"
    total_requests: int = 0
    warmup_requests: int = 0
    nodes: Dict[str, NodeResult] = field(default_factory=dict)
    #: Requests served by *any* cache in the network (origin off-load).
    network: TypeMetrics = field(default_factory=TypeMetrics)
    sibling_serves: int = 0
    #: End-to-end service times over the topology's link paths.
    latency: Optional[LatencyMetrics] = None

    @classmethod
    def blank(cls, config: NetworkConfig, total: int,
              trace_name: str) -> "NetworkResult":
        """A run's result before any request: one empty node per cache,
        latency accumulators when the config measures latency."""
        topology = config.topology
        result = cls(config=config, trace_name=trace_name,
                     total_requests=total,
                     warmup_requests=int(total * config.warmup_fraction),
                     latency=(LatencyMetrics()
                              if config.measure_latency else None))
        for name, spec in topology.nodes.items():
            result.nodes[name] = NodeResult(
                name=name, level=topology.level_of(name),
                capacity_bytes=spec.capacity_bytes,
                policy=_policy_label(spec.policy))
        return result

    @property
    def hit_rate(self) -> float:
        return self.network.overall.hit_rate

    @property
    def byte_hit_rate(self) -> float:
        return self.network.overall.byte_hit_rate

    @property
    def origin_byte_rate(self) -> float:
        """Fraction of requested bytes still fetched from the origin."""
        if not self.network.overall.requested_bytes:
            return 0.0
        return 1.0 - self.network.overall.byte_hit_rate

    @property
    def sibling_hit_share(self) -> float:
        """Fraction of network hits supplied by a sibling."""
        hits = self.network.overall.hits
        return self.sibling_serves / hits if hits else 0.0

    def edge_metrics(self) -> TypeMetrics:
        """All edge populations folded together: the end-user view
        (a hierarchy's children, a mesh's home proxies)."""
        merged = TypeMetrics()
        for name in self.config.topology.edges:
            merged.merge(self.nodes[name].metrics)
        return merged

    def level_metrics(self) -> Dict[int, TypeMetrics]:
        """Per-level merged metrics, level 0 at the edge."""
        topology = self.config.topology
        out: Dict[int, TypeMetrics] = {}
        for name, node in self.nodes.items():
            level = topology.level_of(name)
            merged = out.get(level)
            if merged is None:
                merged = out[level] = TypeMetrics()
            merged.merge(node.metrics)
        return out

    def placement_by_level(self) -> Dict[int, Dict[DocumentType, int]]:
        """Resident bytes per document type, folded per level."""
        topology = self.config.topology
        out: Dict[int, Dict[DocumentType, int]] = {}
        for name, node in self.nodes.items():
            level = topology.level_of(name)
            bucket = out.setdefault(level,
                                    {t: 0 for t in DOCUMENT_TYPES})
            for doc_type, resident in node.placement.items():
                bucket[doc_type] += resident
        return out

    def placement_shares(self) -> Dict[DocumentType, Dict[int, float]]:
        """For each type: the share of its resident bytes per level.

        The per-type placement report: which levels a type's bytes
        end up living at under this strategy/policy combination.
        Types with no resident bytes anywhere map every level to 0.
        """
        by_level = self.placement_by_level()
        totals = {t: sum(levels[t] for levels in by_level.values())
                  for t in DOCUMENT_TYPES}
        return {
            t: {level: (by_level[level][t] / totals[t]
                        if totals[t] else 0.0)
                for level in sorted(by_level)}
            for t in DOCUMENT_TYPES
        }

    def as_dict(self) -> dict:
        data = {
            "topology": self.config.topology.name,
            "strategy": self.config.strategy_name,
            "trace_name": self.trace_name,
            "total_requests": self.total_requests,
            "warmup_requests": self.warmup_requests,
            "network": self.network.as_dict(),
            "sibling_serves": self.sibling_serves,
            "nodes": {name: node.as_dict()
                      for name, node in self.nodes.items()},
        }
        if self.latency is not None:
            data["latency"] = {
                "mean": self.latency.overall.mean,
                "baseline_mean": self.latency.baseline.mean,
                "speedup": self.latency.speedup,
                "by_type": {t.value: stats.mean for t, stats
                            in self.latency.by_type.items()},
            }
        return data


def _policy_label(spec: Union[str, ReplacementPolicy]) -> str:
    if isinstance(spec, str):
        return spec
    return getattr(spec, "name", type(spec).__name__)


class NetworkSimulator:
    """Drives a trace through a cache network."""

    def __init__(self, config: NetworkConfig):
        config.validate()
        self.config = config
        topology = config.topology
        # A strategy instance is walked as a copy: its draws (ProbCache)
        # never advance the config's, so a config reruns identically.
        self.strategy: PlacementStrategy = (
            make_strategy(config.strategy)
            if isinstance(config.strategy, str)
            else copy.deepcopy(config.strategy))
        self.caches: Dict[str, Cache] = {}
        for index, (name, spec) in enumerate(topology.nodes.items()):
            self.caches[name] = Cache(spec.capacity_bytes,
                                      self._build_policy(spec, index))
        # Per-edge routing state, resolved once; every list below is
        # indexed like ``topology.edges``.
        self._paths: List[List[str]] = [
            topology.path_to_origin(edge) for edge in topology.edges]
        self._cache_paths: List[List[Cache]] = [
            [self.caches[name] for name in names]
            for names in self._paths]
        self._spec_paths: List[List[NodeSpec]] = [
            [topology.nodes[name] for name in names]
            for names in self._paths]
        # Each edge's siblings in probe order: the ring from its own
        # position on (none for an edge outside the ring).
        ring = topology.sibling_ring
        self._siblings: List[List[Cache]] = [
            [self.caches[ring[(ring.index(edge) + offset) % len(ring)]]
             for offset in range(1, len(ring))] if edge in ring else []
            for edge in topology.edges]

    def _build_policy(self, spec: NodeSpec,
                      index: int) -> ReplacementPolicy:
        if isinstance(spec.policy, ReplacementPolicy):
            return spec.policy
        seed = self.config.policy_seed
        if seed is not None:
            try:
                return make_policy(spec.policy, seed=seed + index)
            except ConfigurationError:
                pass                     # policy takes no seed
        return make_policy(spec.policy)

    # ----- the walk -------------------------------------------------------

    def run(self, trace, trace_name: Optional[str] = None,
            ) -> NetworkResult:
        columns = columns_of(trace)
        return self._run(columns, Tally.of(columns),
                         trace_name or columns.name)

    def _run(self, columns, tally: Tally, name: str) -> NetworkResult:
        """Walk a trace's ``columns``, then count the walk's outcome
        with ``tally`` — the one of the same columns."""
        result = NetworkResult.blank(self.config, len(columns), name)
        topology = self.config.topology
        with _span("network_simulate",
                   topology=topology.name,
                   strategy=self.config.strategy_name,
                   nodes=topology.n_caches,
                   trace=name, requests=len(columns)):
            served = self._drive(columns)
            account(topology, served, tally, columns.type_codes, result)
            self._snapshot(result)
        publish_network_telemetry(result)
        return result

    def _drive(self, columns) -> List[int]:
        """Walk every request of ``columns``; returns, per request, the
        path depth that served it, −1 for an origin fetch, −2 for a
        sibling."""
        caches = self.caches
        n_edges = len(self._paths)
        cache_paths = self._cache_paths
        siblings = self._siblings
        strategy = self.strategy
        admit_on_probe = strategy.admit_on_probe
        replicate = self.config.replicate_on_sibling_hit
        hit_outcome = AccessOutcome.HIT
        sizes = columns.sizes
        served: List[int] = []
        note = served.append

        # One decoded chunk of the columns is alive at a time.
        rows = chain.from_iterable(
            zip(urls, sizes[start:end].tolist(), types)
            for start, end, urls, types in decode_chunks(columns))
        for index, (url, size, doc_type) in enumerate(rows):
            j = index % n_edges
            path = cache_paths[j]
            served_level = -1
            if admit_on_probe:
                # LCE: probe and admit are one reference() — the
                # legacy hierarchy/mesh cache-call sequence exactly.
                for k, cache in enumerate(path):
                    if cache.reference(
                            url, size, doc_type) is hit_outcome:
                        served_level = k
                        break
            else:
                for k, cache in enumerate(path):
                    entry = cache.get(url)
                    if entry is not None:
                        if entry.size == size:
                            # Serving refreshes the entry (a HIT).
                            cache.reference(url, size, doc_type)
                            served_level = k
                            break
                        # Stale copy: drop it where it sits; whether
                        # the new version lands here again is the
                        # strategy's call below.
                        cache.invalidate(url)

            sibling_served = False
            if served_level < 0:
                for sibling in siblings[j]:
                    entry = sibling.get(url)
                    if entry is not None and entry.size == size:
                        # Serving refreshes the sibling's entry; a
                        # stale sibling copy is *not* served and not
                        # touched (the owner finds out on its own
                        # next reference), matching the legacy mesh.
                        sibling.reference(url, size, doc_type)
                        sibling_served = True
                        break
                if sibling_served:
                    if admit_on_probe:
                        if not replicate:
                            # LCE admitted at the home cache during
                            # the walk; a non-replicating mesh drops
                            # that copy again (the sibling owns it).
                            path[0].invalidate(url)
                    elif replicate:
                        path[0].reference(url, size, doc_type)

            if (not admit_on_probe and not sibling_served
                    and served_level != 0):
                specs = self._spec_paths[j]
                if served_level > 0:
                    visited = specs[:served_level]
                    full = specs[:served_level + 1]
                else:                     # origin fetch
                    visited = full = specs
                for node in strategy.copies(visited, full):
                    caches[node].reference(url, size, doc_type)

            note(-2 if sibling_served else served_level)
        return served

    def _snapshot(self, result: NetworkResult) -> None:
        """Copy end-of-run cache state into the node results."""
        for name, cache in self.caches.items():
            node = result.nodes[name]
            node.hits = cache.hits
            node.misses = cache.misses
            node.evictions = cache.evictions
            node.bypasses = cache.bypasses
            node.invalidations = cache.invalidations
            node.used_bytes = cache.used_bytes
            for entry in cache.entries():
                node.placement[entry.doc_type] += entry.size


def account(topology: Topology, served: Sequence[int], tally: Tally,
            type_codes: np.ndarray, result: NetworkResult) -> None:
    """Count one run's served-depth column into ``result``.

    Both engines end here.  A request reaches its path down to the
    depth that served it (all of it when none did) and hits only
    there, so the per-node and network tallies are masked sums by
    ``tally``.  End-to-end latency, whose running means depend on
    order, is a left fold over the measured rows in trace order: each
    row's seconds over its link path go to the run, then its
    origin-path seconds to the no-cache baseline, then its seconds to
    its edge node.
    """
    depth = np.array(served, dtype=np.int64)
    n = len(depth)
    warmup = result.warmup_requests
    paths = [topology.path_to_origin(edge) for edge in topology.edges]
    n_edges = len(paths)
    for name, node in result.nodes.items():
        reached = np.zeros(n, dtype=bool)
        hit = np.zeros(n, dtype=bool)
        for j, path in enumerate(paths):
            if name in path:
                k = path.index(name)
                arrived = depth[j::n_edges]
                reached[j::n_edges] = (arrived < 0) | (arrived >= k)
                hit[j::n_edges] = arrived == k
        node.metrics.add(tally.totals(warmup, reached),
                         tally.totals(warmup, hit))
    result.network.add(tally.totals(warmup),
                       tally.totals(warmup, depth != -1))
    result.sibling_serves = int(np.count_nonzero(depth[warmup:] == -2))
    latency = result.latency
    if latency is None:
        return
    # links[j][d]: edge j's request served at depth d; links[j][-1],
    # the origin path, is also its no-cache baseline.
    links = [[(topology.client_link,
               *(topology.nodes[name].uplink for name in path[:d]))
              for d in range(len(path) + 1)] for path in paths]
    sibling = (topology.client_link, topology.peer_link)
    edge_latency = [result.nodes[edge].latency for edge in topology.edges]
    rows = zip(depth[warmup:].tolist(), type_codes[warmup:].tolist(),
               tally.transfers[warmup:].tolist())
    for index, (d, code, transfer) in enumerate(rows, warmup):
        j = index % n_edges
        seconds = path_latency(sibling if d == -2 else links[j][d],
                               transfer)
        latency.add(DOCUMENT_TYPES[code], seconds)
        latency.baseline.add(path_latency(links[j][-1], transfer))
        edge_latency[j].add(seconds)


def publish_network_telemetry(result: NetworkResult) -> None:
    """Batch one run's aggregates into the registry/event sink.

    Called once per run — never per request — by both the object walk
    and the fast path, so the two engines are observationally
    indistinguishable downstream.
    """
    labels = {"topology": result.config.topology.name,
              "strategy": result.config.strategy_name}
    registry = get_registry()
    if registry.enabled:
        registry.counter("network_runs_total", **labels).inc()
        registry.counter("network_requests_total", **labels).inc(
            result.total_requests)
        registry.counter("network_hits_total", **labels).inc(
            result.network.overall.hits)
        registry.counter("network_sibling_serves_total",
                         **labels).inc(result.sibling_serves)
        registry.histogram("network_hit_rate", **labels).observe(
            result.hit_rate)
    emit("network_simulated", trace=result.trace_name,
         requests=result.total_requests,
         hit_rate=round(result.hit_rate, 6),
         byte_hit_rate=round(result.byte_hit_rate, 6),
         sibling_serves=result.sibling_serves, **labels)


def run_network(trace, config: NetworkConfig,
                trace_name: Optional[str] = None) -> NetworkResult:
    """One-call network simulation: a batch of one cell."""
    return run_network_cells(trace, [config], trace_name)[0]


def run_network_cells(trace, configs: Sequence[NetworkConfig],
                      trace_name: Optional[str] = None,
                      ) -> List[NetworkResult]:
    """Run network cells over one trace — the one dispatch point.

    Validates every config, gathers the trace's columns once (an
    ``.rcol`` is mmap'd, an iterator consumed here and nowhere else) and
    builds their one :class:`~repro.simulation.vectorized.Tally`, then
    splits the cells: those the vectorized cascade is lossless for
    (:func:`~repro.network.fastpath.fastpath_eligible`: LCE, no ring,
    every node a named LRU, FIFO, GDS, GDSF, GD* or LFU-DA cache) are
    served by it; the walk
    decodes the same columns chunk by chunk for each of the rest.  Both
    engines count their served-depth column with that tally through
    :func:`account`.
    """
    from repro.network.fastpath import fastpath_eligible, run_cascade
    for config in configs:
        config.validate()
    columns = columns_of(trace)
    name = trace_name or columns.name
    tally = Tally.of(columns)
    fast = [fastpath_eligible(config) for config in configs]
    with _span("network_cells", cells=len(configs), fastpath=sum(fast)):
        return [run_cascade(config, columns, tally, name) if eligible
                else NetworkSimulator(config)._run(columns, tally, name)
                for config, eligible in zip(configs, fast)]
