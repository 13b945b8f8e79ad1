"""Column kernels of the shared pass.

:func:`repro.simulation.engine.run_cells` is the one driver between a
trace and its cells, and integer *columns*
(:func:`repro.trace.columnar.columns_of`) are the only thing it reads;
this module is that pass.  Every per-request computation that does not
touch cache state is a column operation, with results bit-identical
to the per-request reference
(:class:`~repro.simulation.simulator.CacheSimulator`):

* resolution — size-interpretation reconstruction
  (:func:`resolve_sizes`, once per resolver key) runs as array ops:
  ``TRUSTED`` is the size column itself, ``ANY_CHANGE`` the transfer
  column, and the paper rule falls back to the scalar recurrence only
  for the (rare) documents whose logged sizes actually vary;
* tallies — the warm-up-gated per-type counting of every cell,
  both sides: each kernel below only yields a hit column, and one
  :class:`Tally` per pass turns a column into ``[requests, bytes]``
  per document type as masked integer sums (the network engines count
  their per-node columns through the same class), while
  :meth:`CacheCell.account` folds any cost and latency over it;
* the LRU ladder — byte-weighted stack distances
  (:func:`weighted_stack_distances`, a merge-sort count over the
  next-reference column, no per-reference loop) feed integer
  per-capacity hit tests and final-resident counting
  (:func:`split_ladder`, :func:`run_lru_ladder`);
* the queue — every other LRU cell and every FIFO cell: one
  insertion-ordered queue (:func:`replay_queue`, recency on for LRU,
  off for FIFO) replays :meth:`~repro.core.cache.Cache.reference`
  exactly, without entry or policy machinery;
* the heap — every GDS, GDSF, GD* and LFU-DA cell
  (:data:`~repro.core.heap_policy.HEAP_KERNEL`): one lazy-deletion
  priority queue on ``H = L + u(p)`` (:func:`replay_heap`) replays
  :meth:`~repro.core.cache.Cache.reference` exactly, keyed by the
  member's own base-value function, the one its ``_key`` calls;
* Greedy-Dual key hints — for the cells the heap does not take (typed
  GD*, Landlord, and occupancy-sampling cells), the cost-model term of
  ``H(p)`` is precomputed per chunk
  (:meth:`~repro.core.cost.CostModel.cost_array`) and consumed through
  the policies' ``_hint_cost`` slot by
  :meth:`CacheCell.process_chunk_hinted`.

The queue and the heap are also the kernels the network cascade
(:mod:`repro.network.fastpath`) runs per node.  Which cell takes which
kernel is decided in one place, :func:`repro.simulation.engine.fast_path`.
Cells that fit none run the plain loop, :meth:`CacheCell.process_chunk`,
over the same lists, decoded once per chunk from the columns.

Bit-identity caveat: Greedy-Dual key costs
(:meth:`~repro.core.cost.CostModel.cost_array`, hinted or replayed)
round ``int64 → float64`` before dividing where the scalar path divides
exact integers, so their identity is guaranteed for sizes below 2^53
bytes — far above any real trace.  Everything else here is integer:
ladder hits compare ``distance + size`` to the capacity exactly at any
size.  No key arithmetic lives here: the heap calls each member's base
value.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from heapq import heapify, heappop, heappush
from itertools import count, repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost import ByteCost, ConstantCost, LatencyCost, PacketCost
from repro.core.heap_policy import HEAP_KERNEL
from repro.observability.profiling import PhaseTimings, phase_timer
from repro.observability.trace import span as _span
from repro.simulation.engine import (
    DEFAULT_CHUNK_SIZE,
    CacheCell,
    SizeInterpretation,
    fast_path,
    queue_recency,
    resolver_key,
)
from repro.structures.addressable_heap import _SLACK
from repro.types import DOCUMENT_TYPES, DocumentType

#: int64 sums whose worst-case magnitude reaches this bound fall back
#: to exact python-int accumulation.
_SUM_GUARD = 1 << 62


def _exact_sum(values: np.ndarray) -> int:
    """Exact integer sum of an int64 array, immune to silent overflow."""
    count = int(values.size)
    if count == 0:
        return 0
    peak = int(values.max())
    if peak <= 0 or count * peak < _SUM_GUARD:
        return int(values.sum(dtype=np.int64))
    return sum(values.tolist())


# ----- vectorized size resolution -------------------------------------------


def _resolve_paper(trace, tolerance: float) -> np.ndarray:
    """Paper-rule document sizes as a column.

    Documents whose logged transfer size never changes resolve to that
    size (first/unchanged/within-tolerance all emit the logged value);
    only documents with varying logged sizes replay the
    :class:`~repro.trace.modification.ModificationDetector` recurrence,
    scalar per group, preserving its arithmetic.
    """
    doc = trace.doc_ids
    logged = trace.transfers
    out = np.array(logged, dtype=np.int64)
    n = len(doc)
    if n == 0:
        return out
    order = np.argsort(doc, kind="stable")
    d_s = doc[order]
    t_s = logged[order]
    same_doc = d_s[1:] == d_s[:-1]
    changed = same_doc & (t_s[1:] != t_s[:-1])
    if not bool(changed.any()):
        return out
    unstable = np.unique(d_s[1:][changed])
    member = np.isin(d_s, unstable)
    idx = order[member]          # original positions, per doc, trace order
    group_doc = d_s[member]
    starts = np.flatnonzero(
        np.concatenate(([True], group_doc[1:] != group_doc[:-1])))
    ends = np.append(starts[1:], len(group_doc))
    idx_list = idx.tolist()
    logged_list = logged.tolist()
    for g in range(len(starts)):
        previous: Optional[int] = None
        for k in range(int(starts[g]), int(ends[g])):
            position = idx_list[k]
            size = logged_list[position]
            if previous is None:
                previous = size
            elif size != previous:
                # A zero previous size is the rule's limit, as in the
                # detector: an infinite delta.
                delta = (abs(size - previous) / previous if previous
                         else math.inf)
                if delta < tolerance or size > previous:
                    previous = size
                # else: interrupted transfer; the belief stays put.
            out[position] = previous
    return out


def resolve_sizes(trace, key: tuple) -> np.ndarray:
    """The document-size column of a trace's columns under one
    :func:`~repro.simulation.engine.resolver_key`."""
    if key == ("trusted",):
        return trace.sizes
    interpretation, tolerance = key
    if interpretation == SizeInterpretation.ANY_CHANGE.value:
        # The detector's belief after any change is the logged
        # size itself, so the column resolves to the transfers.
        return trace.transfers
    return _resolve_paper(trace, tolerance)


# ----- the one tally ---------------------------------------------------------


class Tally:
    """Warm-up-gated per-type counting over one set of columns.

    Built once per set of columns, so the five per-type masks and the
    per-boundary "measured" masks are shared by every cell of a pass
    (or node of a network).  Integer masked column sums: order-
    independent, so exactly the totals
    :meth:`~repro.simulation.metrics.TypeMetrics.record` accumulates
    request by request.
    """

    def __init__(self, transfers: np.ndarray, codes: np.ndarray):
        """``transfers`` are the measured ones, already clamped to the
        document size as
        :func:`~repro.simulation.metrics.measured_transfer` clamps."""
        self.transfers = transfers
        self._typed = [codes == code for code in range(len(DOCUMENT_TYPES))]
        #: warm-up boundary -> (its "measured" mask, its requested side)
        self._boundaries: Dict[int, tuple] = {}

    @classmethod
    def of(cls, columns) -> "Tally":
        """The tally of a trace's columns."""
        return cls(np.minimum(columns.transfers, columns.sizes),
                   columns.type_codes)

    def totals(self, warmup: int, select: Optional[np.ndarray] = None,
               ) -> Dict[DocumentType, list]:
        """``[requests, bytes]`` per document type over the rows past
        ``warmup`` — of the boolean column ``select``, or all of them
        (the requested side, computed once per boundary)."""
        boundary = self._boundaries.get(warmup)
        if boundary is None:
            measured = np.zeros(len(self.transfers), dtype=bool)
            measured[warmup:] = True
            boundary = self._boundaries[warmup] = (measured,
                                                   self._count(measured))
        measured, requested = boundary
        if select is None:
            return requested
        return self._count(measured & select)

    def _count(self, rows: np.ndarray) -> Dict[DocumentType, list]:
        transfers = self.transfers
        totals = {}
        for doc_type, typed in zip(DOCUMENT_TYPES, self._typed):
            chosen = rows & typed
            totals[doc_type] = [int(np.count_nonzero(chosen)),
                                _exact_sum(transfers[chosen])]
        return totals


# ----- the exact all-capacities LRU ladder ----------------------------------


def split_ladder(source, cells: Sequence[CacheCell]) -> tuple:
    """Partition ``cells`` into ``(ladder, rest, order)``.

    ``ladder`` cells are served by :func:`run_lru_ladder`.  Config
    side they are :func:`~repro.simulation.engine.fast_path`'s
    ``"queue"`` cells replayed with recency (LRU) over ``TRUSTED``
    sizes; trace side every document keeps one size across the trace
    and none exceeds the cell's capacity (so no bypasses, no
    invalidations — the regime where byte-bounded LRU obeys inclusion
    exactly).  Every other ``"queue"`` cell stays in ``rest``, for
    :func:`replay_queue`.  ``order``, the stable argsort of the doc-id
    column that checks the sizes, is handed on to
    :func:`run_lru_ladder` (None when no cell is a candidate).
    """
    candidates = [cell for cell in cells
                  if fast_path(cell) == "queue"
                  and queue_recency(cell.policy)
                  and cell.config.size_interpretation
                  is SizeInterpretation.TRUSTED]
    if not candidates:
        return [], cells, None
    doc_ids, sizes = source.doc_ids, source.sizes
    order = np.argsort(doc_ids, kind="stable")
    d_s = doc_ids[order]
    s_s = sizes[order]
    if bool(np.any((d_s[1:] == d_s[:-1]) & (s_s[1:] != s_s[:-1]))):
        return [], cells, None
    max_size = int(sizes.max()) if len(sizes) else 0
    ladder = [cell for cell in candidates
              if cell.config.capacity_bytes >= max_size]
    excluded = set(map(id, ladder))
    return (ladder, [cell for cell in cells if id(cell) not in excluded],
            order)


def weighted_stack_distances(keys: np.ndarray, weights: np.ndarray,
                             order: Optional[np.ndarray] = None,
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted LRU stack distances of a key column, as array ops.

    Returns ``(distances, cold, last)``: ``distances[i]`` is the total
    weight of the distinct keys referenced strictly between position
    ``i`` and the previous reference to ``keys[i]``, each key at the
    weight of its latest reference (0 where ``cold``, a key's first
    reference); ``last`` marks each key's final reference.  Weights are
    non-negative integers: a unit column counts distinct documents (the
    Mattson distance), a size column sums their bytes.  ``order`` is
    the stable argsort of ``keys`` where the caller already has it.

    With ``next[j]`` the position of ``j``'s key's next reference
    (``n`` if none) and ``W`` the prefix sum of ``w``, a re-reference
    at ``i`` whose previous reference is at ``p`` has ::

        d[i] = sum(w[j] for p < j < i if next[j] > i)
             = (W[i] - W[p+1]) - sum(w[j] for j > p if next[j] < i)

    since ``j < next[j]``.  The last sum — the weight right of ``p``
    with a smaller ``next`` than ``p``'s own — is counted by a
    bottom-up merge sort of ``next``: each level is one stable argsort
    of ``(block, next)`` (two presorted runs per block, so a merge),
    and there every element of a block's left half gains the right-half
    weight merged ahead of it, one cumsum.  ``⌈log2 n⌉`` levels, int64
    arithmetic, or exact python ints (``dtype=object``, the same code)
    once the total weight reaches ``1 << 62``.
    """
    n = len(keys)
    if order is None:
        order = np.argsort(keys, kind="stable")
    same = keys[order[1:]] == keys[order[:-1]]
    following = np.full(n, n, dtype=np.int64)
    following[order[:-1][same]] = order[1:][same]
    del order, same
    last = following == n
    previous = np.flatnonzero(~last)
    current = following[previous]
    cold = np.ones(n, dtype=bool)
    cold[current] = False
    exact = weights.dtype == object or _exact_sum(weights) >= _SUM_GUARD
    dtype = object if exact else np.int64
    weights = weights.astype(dtype, copy=False)
    nested = np.zeros(n, dtype=dtype)
    ranked = np.zeros(n + 1, dtype=dtype)
    span = n + 1
    tree = np.arange(n, dtype=np.int64)
    level = 1
    while (1 << (level - 1)) < n:
        block_key = (tree >> level) * span + following[tree]
        tree = tree[np.argsort(block_key, kind="stable")]
        del block_key
        right = ((tree >> (level - 1)) & 1).astype(bool)
        np.cumsum(np.where(right, weights[tree], 0), out=ranked[1:])
        left = np.flatnonzero(~right)
        start = (tree[left] >> level) << level
        nested[tree[left]] += ranked[left + 1] - ranked[start]
        level += 1
    del tree, ranked
    prefix = np.zeros(n + 1, dtype=dtype)
    np.cumsum(weights, out=prefix[1:])
    distances = np.zeros(n, dtype=dtype)
    distances[current] = (prefix[current] - prefix[previous + 1]
                          - nested[previous])
    return distances, cold, last


def run_lru_ladder(columns, tally: Tally, cells: Sequence[CacheCell],
                   order: np.ndarray) -> None:
    """Serve eligible LRU cells from one stack-distance pass.

    Hits: a reference hits capacity ``C`` iff byte-weighted stack
    distance + document size ≤ ``C``, compared in integers (exact under
    the preconditions checked by :func:`split_ladder`).  Evictions:
    admissions equal misses (every miss admits — nothing bypasses), so
    evictions = misses − residents at end of trace; the final resident
    set is each document's last reference, most recent first, while
    the cumulative bytes fit.

    Every step is a column op — :func:`weighted_stack_distances` (over
    ``order``, :func:`split_ladder`'s sort of the doc-id column), the
    per-capacity hit tests, final-resident counting — and each cell's
    hit column is counted by :meth:`CacheCell.account`.
    """
    doc_ids, sizes = columns.doc_ids, columns.sizes
    n = len(doc_ids)
    if n == 0:
        return
    distances, cold, last = weighted_stack_distances(doc_ids, sizes,
                                                     order)
    needed = distances + sizes
    warm = ~cold
    total_hits: List[int] = []
    for cell in cells:
        hit = warm & (needed <= cell.config.capacity_bytes)
        total_hits.append(int(np.count_nonzero(hit)))
        cell.account(tally, hit, columns)

    # Final residents: last references in recency order, counted while
    # prefix bytes + own size fit each capacity.
    last_sizes = sizes[np.flatnonzero(last)[::-1]].astype(distances.dtype,
                                                         copy=False)
    fits = np.cumsum(last_sizes)
    residents = [int(np.count_nonzero(fits <= cell.config.capacity_bytes))
                 for cell in cells]
    for i, cell in enumerate(cells):
        cache = cell.cache
        cache.hits = total_hits[i]
        cache.misses = admissions = n - total_hits[i]
        cache.evictions = admissions - residents[i]


# ----- the queue replay -----------------------------------------------------


def replay_queue(doc_list: list, size_list: list, capacity: int,
                 recency: bool) -> Tuple[bytearray, Dict[str, int], Dict]:
    """Replay :meth:`Cache.reference` for a FIFO (``recency=False``) or
    an LRU (``recency=True``) cache, without entry or policy machinery.

    Residency is an insertion-ordered ``doc id -> size`` dict, oldest
    first (an LRU hit moves its document to the back): a reference hits
    iff its document is resident at the same size; a size change
    invalidates and readmits at the back; anything larger than the
    cache bypasses; eviction pops the front until the newcomer fits.
    Returns the hit column, the cache's counters by attribute name and
    the final residents, in queue order.
    """
    resident: "OrderedDict[int, int]" = OrderedDict()
    used = 0
    misses = evictions = bypasses = invalidations = 0
    hit = bytearray(len(doc_list))
    get = resident.get
    touch = resident.move_to_end
    pop_front = resident.popitem
    index = 0
    for doc, size in zip(doc_list, size_list):
        current = get(doc)
        if current is not None and current == size:
            hit[index] = 1
            if recency:
                touch(doc)
        else:
            if current is not None:
                del resident[doc]
                used -= current
                invalidations += 1
            misses += 1
            if size > capacity:
                bypasses += 1
            else:
                while used + size > capacity:
                    _victim, victim_size = pop_front(last=False)
                    used -= victim_size
                    evictions += 1
                resident[doc] = size
                used += size
        index += 1
    counters = {"hits": len(hit) - misses, "misses": misses,
                "evictions": evictions, "bypasses": bypasses,
                "invalidations": invalidations}
    return hit, counters, resident


# ----- the heap replay -------------------------------------------------------


def key_costs(model, sizes: np.ndarray) -> Optional[list]:
    """``model``'s cost of each reference's size floored at 1 (the size
    a Greedy-Dual key divides by), or None where there is no model."""
    if model is None:
        return None
    return model.cost_array(np.maximum(sizes, 1)).tolist()


def replay_heap(doc_list: list, size_list: list, costs: Optional[list],
                capacity: int, policy) -> Tuple[bytearray, Dict[str, int],
                                                Dict]:
    """Replay :meth:`Cache.reference` for a :data:`HEAP_KERNEL` member,
    without entry, hook or :class:`AddressableHeap` machinery.

    One lazy-deletion ``heapq`` of ``(key, seq, doc, size, frequency,
    last-key clock)`` tuples and a dict from each resident document to
    its live tuple: the tuple *is* the resident's state, replaced
    whenever its key is set (on admission, frequency 1, and on every
    hit), with ``key = L + base_value(frequency, cost, size or 1)``.
    ``seq`` is the policy's own insertion counter, and the list is
    rebuilt by :data:`~repro.structures.addressable_heap._SLACK`'s rule.
    Eviction pops the minimum live tuple and sets L to its key; a
    document larger than the cache bypasses; a size change invalidates
    (L stays, and GD*'s last-key clock goes with the tuple) and
    readmits.  GD* ticks its clock once per key and feeds each hit's
    gap to the policy's own β estimator, whose β then keys.  ``costs``
    is :func:`key_costs` of ``size_list``.

    Returns the hit column, the cache's counters by attribute name and
    the final residents, ``doc id -> size``; the policy is left with
    the run's L (and GD*'s clock).
    """
    base = HEAP_KERNEL[type(policy)]
    # GD*, the one member with a β estimator, keys through it.
    estimator = getattr(policy, "estimator", None)
    clock = policy._clock if estimator is not None else 0
    inflation = policy.inflation
    live: Dict[int, tuple] = {}
    heap: list = []
    sequence = policy._counter
    used = misses = evictions = bypasses = invalidations = 0
    hit = bytearray(len(doc_list))
    get = live.get
    for index, doc, size, cost in zip(count(), doc_list, size_list,
                                      repeat(None) if costs is None
                                      else costs):
        item = get(doc)
        if item is not None and item[3] == size:
            hit[index] = 1
            frequency = item[4] + 1
            if estimator is None:
                item = (inflation + base(frequency, cost, size or 1),
                        next(sequence), doc, size, frequency, 0)
            else:
                clock += 1
                estimator.observe(clock - item[5])
                item = (inflation + base(frequency, cost, size or 1,
                                         estimator.beta),
                        next(sequence), doc, size, frequency, clock)
            heappush(heap, item)
            live[doc] = item
            if len(heap) > 2 * len(live) + _SLACK:
                heap[:] = live.values()
                heapify(heap)
            continue
        if item is not None:
            del live[doc]
            used -= item[3]
            invalidations += 1
            if len(heap) > 2 * len(live) + _SLACK:
                heap[:] = live.values()
                heapify(heap)
        misses += 1
        if size > capacity:
            bypasses += 1
            continue
        while used + size > capacity:
            victim = heappop(heap)
            victim_doc = victim[2]
            if get(victim_doc) is victim:
                del live[victim_doc]
                inflation = victim[0]
                used -= victim[3]
                evictions += 1
        if estimator is None:
            item = (inflation + base(1, cost, size or 1),
                    next(sequence), doc, size, 1, 0)
        else:
            clock += 1
            item = (inflation + base(1, cost, size or 1, estimator.beta),
                    next(sequence), doc, size, 1, clock)
        heappush(heap, item)
        live[doc] = item
        used += size
    policy.inflation = inflation
    if estimator is not None:
        policy._clock = clock
    counters = {"hits": len(hit) - misses, "misses": misses,
                "evictions": evictions, "bypasses": bypasses,
                "invalidations": invalidations}
    return hit, counters, {doc: item[3] for doc, item in live.items()}


# ----- chunked dispatch for everything else --------------------------------


def _cost_model_key(model) -> tuple:
    """Hashable identity for sharing per-chunk cost arrays."""
    kind = type(model)
    if kind is ConstantCost:
        return ("const", model.value)
    if kind is PacketCost:
        return ("packet", model.mss, model.ceil_packets)
    if kind is ByteCost:
        return ("byte",)
    if kind is LatencyCost:
        return ("latency", model.rtt_seconds, model.bandwidth)
    return ("instance", id(model))


def decode_chunks(trace):
    """``(start, end, urls, document types)`` per ``DEFAULT_CHUNK_SIZE``
    rows of a trace's columns: the one place a doc id becomes its url
    string and a type code its :class:`~repro.types.DocumentType`."""
    n = len(trace)
    urls = trace.urls()
    doc = trace.doc_ids
    codes = trace.type_codes
    for start in range(0, n, DEFAULT_CHUNK_SIZE):
        end = min(start + DEFAULT_CHUNK_SIZE, n)
        yield (start, end, [urls[d] for d in doc[start:end].tolist()],
               [DOCUMENT_TYPES[c] for c in codes[start:end].tolist()])


def _drive_chunks(trace, resolved: Dict[tuple, np.ndarray],
                  plain: Dict[tuple, List[CacheCell]],
                  hinted: Dict[tuple, List[tuple]],
                  hit_of: Dict[CacheCell, np.ndarray]) -> None:
    """Decode each chunk's columns once and feed every consumer its
    lists (plain cells the timestamps too, hinted cells their key
    costs); each cell's chunk of hits lands in its ``hit_of`` column."""
    keys = set(plain) | set(hinted)
    if not keys:
        return
    for start, end, url_chunk, type_chunk in decode_chunks(trace):
        cost_cache: Dict[tuple, list] = {}
        stamps = trace.timestamps[start:end].tolist() if plain else None
        for key in keys:
            resolved_slice = resolved[key][start:end]
            size_list = resolved_slice.tolist()
            for cell in plain.get(key, ()):
                hit_of[cell][start:end] = cell.run_chunk(
                    cell.process_chunk, start, url_chunk, size_list,
                    type_chunk, stamps)
            clamped = None
            for cell, model, model_key in hinted.get(key, ()):
                costs = cost_cache.get((key, model_key))
                if costs is None:
                    if clamped is None:
                        clamped = np.maximum(resolved_slice, 1)
                    costs = model.cost_array(clamped).tolist()
                    cost_cache[(key, model_key)] = costs
                hit_of[cell][start:end] = cell.run_chunk(
                    cell.process_chunk_hinted, start, url_chunk,
                    size_list, type_chunk, costs)


# ----- the columnar pass ----------------------------------------------------


def drive_columnar(trace, cells: Sequence[CacheCell], tally: Tally,
                   timings: PhaseTimings) -> Tuple[int, int]:
    """Drive ``cells`` over a trace's columns; each cell's hit column is
    counted by :meth:`CacheCell.account`.

    The body of :func:`repro.simulation.engine.run_cells` (which has
    already taken the LRU-ladder cells out of ``cells``).  Returns how
    many cells :func:`replay_queue` and :func:`replay_heap` served.
    """
    replayed: List[Tuple[CacheCell, tuple, str]] = []
    plain: Dict[tuple, List[CacheCell]] = {}
    hinted: Dict[tuple, List[tuple]] = {}
    hit_of: Dict[CacheCell, np.ndarray] = {}
    for cell in cells:
        key = resolver_key(cell.config)
        path = fast_path(cell)
        if path in ("queue", "heap"):
            replayed.append((cell, key, path))
            continue
        hit_of[cell] = np.zeros(len(trace), dtype=bool)
        if path == "hinted":
            model = cell.policy.cost_model
            hinted.setdefault(key, []).append(
                (cell, model, _cost_model_key(model)))
        else:
            plain.setdefault(key, []).append(cell)
    with _span("resolve"), phase_timer("resolve", timings):
        resolved = {key: resolve_sizes(trace, key) for key in
                    {resolver_key(cell.config) for cell in cells}}
    with _span("drive"), phase_timer("pass", timings):
        _drive_chunks(trace, resolved, plain, hinted, hit_of)
        if replayed:
            doc_list = trace.doc_ids.tolist()
            size_lists: Dict[tuple, list] = {}
            cost_lists: Dict[tuple, Optional[list]] = {}
            for cell, key, path in replayed:
                sizes = size_lists.get(key)
                if sizes is None:
                    sizes = size_lists[key] = resolved[key].tolist()
                cache, policy = cell.cache, cell.policy
                if path == "queue":
                    hits, counters, _resident = replay_queue(
                        doc_list, sizes, cache.capacity_bytes,
                        queue_recency(policy))
                else:
                    model = policy.cost_model
                    costs_key = (key, _cost_model_key(model))
                    if costs_key not in cost_lists:
                        cost_lists[costs_key] = key_costs(model,
                                                          resolved[key])
                    hits, counters, _resident = replay_heap(
                        doc_list, sizes, cost_lists[costs_key],
                        cache.capacity_bytes, policy)
                for counter, value in counters.items():
                    setattr(cache, counter, getattr(cache, counter) + value)
                hit_of[cell] = np.frombuffer(hits, dtype=bool)
        for cell, hits in hit_of.items():
            cell.account(tally, hits, trace)
    n_queue = sum(path == "queue" for _cell, _key, path in replayed)
    return n_queue, len(replayed) - n_queue
