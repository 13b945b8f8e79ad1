"""Vectorized LRU/LCE network fast path over a trace's columns.

A network of LRU caches under leave-copy-everywhere decomposes into
independent per-node single-cache problems: each node sees a fixed
request substream (its edges' client streams merged with its
children's miss streams), so the whole network runs as a cascade of
per-node LRU passes — leaves first, each pass emitting its miss
indices upward.  Each pass is an amortized-O(1)-per-reference scan
over python-int dicts (insertion order *is* recency order), which
also yields the node's final cache state — residents, used bytes,
evictions — for free; everything around the scans (stream merging,
per-type tallies, the network-served mask) is numpy column work.

Eligibility is decided by :func:`eligible_cells`; the
conditions are exactly those under which the decomposition is
lossless, and ``tests/network/test_equivalence.py`` pins the results
bit-identical (every counter, every per-type tally) against the
object walk in :mod:`repro.network.engine`.

The cascade clears the benchmark's ≥1M aggregate node-visits/s floor
(``benchmarks/bench_network.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.engine import (NetworkConfig, NetworkResult,
                                  NodeResult, publish_network_telemetry)
from repro.network.strategies import LeaveCopyEverywhere
from repro.observability.trace import span as _span
from repro.simulation.vectorized import (Tally, _exact_sum,
                                         stable_max_size)
from repro.trace.columnar import columns_of
from repro.types import DOCUMENT_TYPES


def eligible_cells(columns, configs: Sequence[NetworkConfig],
                   ) -> List[NetworkConfig]:
    """The configs the cascade is provably lossless for over a trace's
    ``columns`` (:func:`~repro.trace.columnar.columns_of`).

    Requires: LCE placement; no sibling ring; no latency
    accounting; every node running the registry ``"lru"`` policy;
    per-document stable sizes (no modification misses — a stale drop
    at one node would change its miss stream); and every document
    fitting every node (no bypasses).  The trace-side condition is
    evaluated once for all configs, and only when some config passes
    the config-side ones — an ineligible grid never sorts the trace.
    """
    candidates = []
    for config in configs:
        strategy = config.strategy
        if not (strategy == "lce"
                or isinstance(strategy, LeaveCopyEverywhere)):
            continue
        topology = config.topology
        if topology.sibling_ring or config.measure_latency:
            continue
        if all(spec.policy == "lru"
               for spec in topology.nodes.values()):
            candidates.append(config)
    if not candidates:
        return []
    max_size = stable_max_size(columns.doc_ids, columns.sizes)
    if max_size is None:
        return []
    return [config for config in candidates
            if all(spec.capacity_bytes >= max_size
                   for spec in config.topology.nodes.values())]


def fastpath_eligible(trace, config: NetworkConfig) -> bool:
    """True when :func:`eligible_cells` keeps this one cell."""
    return bool(eligible_cells(columns_of(trace), [config]))


def _lru_pass(doc_ids: np.ndarray, sizes: np.ndarray,
              capacity: int) -> Tuple[np.ndarray, int, int, Dict]:
    """One node's LRU life: hit mask, evictions, used bytes, state.

    The returned dict maps resident doc id → size in recency order
    (oldest first) — python dicts preserve insertion order and a hit
    reinserts, so the dict *is* the LRU list.  All byte arithmetic is
    python-int exact.  Preconditions (checked by
    :func:`eligible_cells`): stable per-document sizes, every
    document fits — under those this is reference-for-reference what
    :class:`~repro.core.cache.Cache` with registry ``"lru"`` does.
    """
    n = len(doc_ids)
    hit = np.zeros(n, dtype=bool)
    cache: Dict[int, int] = {}
    used = 0
    evictions = 0
    docs = doc_ids.tolist()
    size_list = sizes.tolist()
    pop = cache.pop
    for j in range(n):
        doc = docs[j]
        size = pop(doc, None)
        if size is not None:             # hit: move to most-recent
            cache[doc] = size
            hit[j] = True
            continue
        size = size_list[j]
        while used + size > capacity:
            victim = next(iter(cache))
            used -= pop(victim)
            evictions += 1
        cache[doc] = size
        used += size
    return hit, evictions, used, cache


def run_fastpath(trace, config: NetworkConfig,
                 trace_name: Optional[str] = None) -> NetworkResult:
    """Run one eligible cell as a cascade of per-node LRU passes."""
    trace = columns_of(trace)
    topology = config.topology
    n = len(trace)
    warmup = int(n * config.warmup_fraction)
    name = trace_name or getattr(trace, "name", "trace")
    result = NetworkResult(config=config, trace_name=name,
                           total_requests=n, warmup_requests=warmup)
    for node_name, spec in topology.nodes.items():
        result.nodes[node_name] = NodeResult(
            name=node_name, level=topology.level_of(node_name),
            capacity_bytes=spec.capacity_bytes, policy="lru")
    doc_ids = trace.doc_ids
    sizes = trace.sizes
    codes = trace.type_codes
    tally = Tally.of(trace)
    # Per-document type, for the end-of-run placement snapshot
    # (eligibility guarantees one stable (size, type) per document).
    code_of = np.zeros(int(doc_ids.max(initial=0)) + 1,
                       dtype=codes.dtype)
    code_of[doc_ids] = codes

    edges = topology.edges
    n_edges = len(edges)
    streams: Dict[str, List[np.ndarray]] = {node: []
                                            for node in topology.nodes}
    for j, edge in enumerate(edges):
        streams[edge].append(np.arange(j, n, n_edges, dtype=np.int64))

    # Children before parents: deeper nodes first.
    order = sorted(topology.nodes,
                   key=lambda node: -topology.depth(node))
    origin_misses: List[np.ndarray] = []
    with _span("network_fastpath", topology=topology.name,
               nodes=topology.n_caches, trace=name, requests=n):
        for node_name in order:
            parts = streams[node_name]
            node = result.nodes[node_name]
            if not parts:
                continue
            idx = parts[0] if len(parts) == 1 \
                else np.sort(np.concatenate(parts))
            hit, evictions, used, residents = _lru_pass(
                doc_ids[idx], sizes[idx], node.capacity_bytes)
            miss_idx = idx[~hit]
            parent = topology.parents[node_name]
            if parent is not None:
                streams[parent].append(miss_idx)
            else:
                origin_misses.append(miss_idx)

            reached = np.zeros(n, dtype=bool)
            reached[idx] = True
            served_here = np.zeros(n, dtype=bool)
            served_here[idx[hit]] = True
            node.metrics.add(tally.totals(warmup, reached),
                             tally.totals(warmup, served_here))
            node.hits = int(np.count_nonzero(hit))
            node.misses = len(idx) - node.hits
            node.evictions = evictions
            node.used_bytes = used
            if residents:
                r_docs = np.fromiter(residents.keys(), dtype=np.int64,
                                     count=len(residents))
                r_sizes = np.fromiter(residents.values(),
                                      dtype=np.int64,
                                      count=len(residents))
                r_codes = code_of[r_docs]
                for code, doc_type in enumerate(DOCUMENT_TYPES):
                    node.placement[doc_type] = _exact_sum(
                        r_sizes[r_codes == code])

        # Network view: served anywhere == not in any root's final
        # miss stream (those requests went to the origin).
        served = np.ones(n, dtype=bool)
        for miss_idx in origin_misses:
            served[miss_idx] = False
        result.network.add(tally.totals(warmup),
                           tally.totals(warmup, served))
    publish_network_telemetry(result)
    return result
