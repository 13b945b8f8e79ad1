"""Vectorized LCE network fast path over a trace's columns.

A network of caches under leave-copy-everywhere decomposes into
independent per-node single-cache problems: each node sees a fixed
request substream (its edges' client streams merged with its children's
miss streams), so the whole network runs as a cascade of per-node
replays — leaves first, each emitting its miss rows upward.  Each
replay is a kernel the single-cache cells run:
:func:`~repro.simulation.vectorized.replay_queue` for LRU and FIFO
nodes, with the node's recency flag from
:data:`~repro.simulation.engine.QUEUE_RECENCY`, and
:func:`~repro.simulation.vectorized.replay_heap` for GDS, GDSF, GD* and
LFU-DA nodes (:data:`~repro.core.heap_policy.HEAP_KERNEL`), each with a
fresh policy of its name: an exact replay of
:meth:`~repro.core.cache.Cache.reference`, size-change invalidations and
bypasses included, that also yields the node's counters and final
residents.  Its hit rows write the node's depth into
the run's served-depth column, and
:func:`repro.network.engine.account` counts that column exactly as it
counts the object walk's, latency included.

Eligibility, :func:`fastpath_eligible`, reads the config alone: the
three conditions under which the decomposition is lossless.
``tests/network/test_equivalence.py`` and
``tests/network/test_accounting.py`` hold the results equal (every
counter, every per-type tally, every latency moment) to the object
walk in :mod:`repro.network.engine`.

The cascade clears the benchmark's ≥1M aggregate node-visits/s floor
(``benchmarks/bench_network.py``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.heap_policy import HEAP_KERNEL
from repro.core.registry import make_policy
from repro.network.engine import (NetworkConfig, NetworkResult, NodeResult,
                                  account, publish_network_telemetry)
from repro.network.strategies import LeaveCopyEverywhere
from repro.observability.trace import span as _span
from repro.simulation.engine import queue_recency
from repro.simulation.vectorized import (Tally, _exact_sum, key_costs,
                                        replay_heap, replay_queue)
from repro.types import DOCUMENT_TYPES


def _replayed(policy) -> bool:
    """True when a node's policy is a registry name that the queue
    (:func:`~repro.simulation.engine.queue_recency`) or the heap replay
    (:data:`~repro.core.heap_policy.HEAP_KERNEL`) replays."""
    return isinstance(policy, str) and (
        queue_recency(policy) is not None
        or type(make_policy(policy)) in HEAP_KERNEL)


def fastpath_eligible(config: NetworkConfig) -> bool:
    """True when the cascade is lossless for ``config``: LCE placement
    (a node's stream is its children's misses), no sibling ring (no
    request leaves its path) and every node named a policy one of the
    replays takes (a node given a policy instance stays on the walk,
    which drives that very object)."""
    strategy = config.strategy
    topology = config.topology
    return ((strategy == "lce" or isinstance(strategy, LeaveCopyEverywhere))
            and not topology.sibling_ring
            and all(_replayed(spec.policy)
                    for spec in topology.nodes.values()))


def _replay_node(policy_name: str, docs: np.ndarray, sizes: np.ndarray,
                 capacity: int) -> tuple:
    """One node's replay of its request substream: the queue for LRU
    and FIFO, else the heap replay with a fresh policy of that name, as
    the walk builds one per node."""
    recency = queue_recency(policy_name)
    if recency is not None:
        return replay_queue(docs.tolist(), sizes.tolist(), capacity,
                            recency)
    policy = make_policy(policy_name)
    return replay_heap(docs.tolist(), sizes.tolist(),
                       key_costs(policy.cost_model, sizes), capacity,
                       policy)


def run_cascade(config: NetworkConfig, columns, tally: Tally,
                name: str) -> NetworkResult:
    """Cascade a trace's ``columns``, then count the served-depth
    column with ``tally`` — the one of the same columns."""
    topology = config.topology
    n = len(columns)
    result = NetworkResult.blank(config, n, name)
    doc_ids, sizes, codes = (columns.doc_ids, columns.sizes,
                             columns.type_codes)
    paths = [topology.path_to_origin(edge) for edge in topology.edges]
    n_edges = len(paths)
    served = np.full(n, -1, dtype=np.int64)
    streams: Dict[str, List[np.ndarray]] = {node: []
                                            for node in topology.nodes}
    for j, edge in enumerate(topology.edges):
        streams[edge].append(np.arange(j, n, n_edges, dtype=np.int64))

    # Children before parents: deeper nodes first.
    order = sorted(topology.nodes,
                   key=lambda node: -topology.depth(node))
    with _span("network_fastpath", topology=topology.name,
               nodes=topology.n_caches, trace=name, requests=n):
        for node_name in order:
            parts = streams[node_name]
            if not parts:
                continue
            node = result.nodes[node_name]
            idx = parts[0] if len(parts) == 1 \
                else np.sort(np.concatenate(parts))
            hits, counters, residents = _replay_node(
                topology.nodes[node_name].policy, doc_ids[idx],
                sizes[idx], node.capacity_bytes)
            for counter, value in counters.items():
                setattr(node, counter, value)
            node.used_bytes = sum(residents.values())
            hit = np.frombuffer(hits, dtype=bool)
            # A hit row was served at this node's depth on its edge's path.
            depth_on = np.array([path.index(node_name)
                                 if node_name in path else -1
                                 for path in paths])
            rows = idx[hit]
            served[rows] = depth_on[rows % n_edges]
            missed = idx[~hit]
            parent = topology.parents[node_name]
            if parent is not None:
                streams[parent].append(missed)
            _place(node, residents, doc_ids[missed], codes[missed])
        account(topology, served, tally, codes, result)
    publish_network_telemetry(result)
    return result


def _place(node: NodeResult, residents: Dict[int, int],
           missed_docs: np.ndarray, missed_codes: np.ndarray) -> None:
    """Resident bytes per document type, each resident typed as
    :class:`~repro.core.cache.Cache` keeps it: by the row that admitted
    it, which is its document's latest miss at the node."""
    if not residents:
        return
    docs, newest = np.unique(missed_docs[::-1], return_index=True)
    admitted_codes = missed_codes[::-1][newest]
    resident_docs = np.fromiter(residents.keys(), dtype=np.int64,
                                count=len(residents))
    resident_sizes = np.fromiter(residents.values(), dtype=np.int64,
                                 count=len(residents))
    resident_codes = admitted_codes[np.searchsorted(docs, resident_docs)]
    for code, doc_type in enumerate(DOCUMENT_TYPES):
        node.placement[doc_type] = _exact_sum(
            resident_sizes[resident_codes == code])
