"""Column kernels of the shared pass.

:func:`repro.simulation.engine.run_cells` is the one driver between a
trace and its cells, and integer *columns*
(:func:`repro.trace.columnar.columns_of`) are the only thing it reads;
this module is that pass.  Every per-request computation that does not
touch cache state is a column operation, with results **bit-identical**
to the per-request reference
(:class:`~repro.simulation.simulator.CacheSimulator`):

* **resolution** — size-interpretation reconstruction
  (:class:`ColumnarReferenceStream`) runs as array ops: ``TRUSTED`` is
  the size column itself, ``ANY_CHANGE`` the transfer column, and the
  paper rule falls back to the scalar recurrence only for the (rare)
  documents whose logged sizes actually vary;
* **requested-side tallies** — the per-warmup-boundary totals deferred
  cells merge at finalize are masked integer column sums;
* **the LRU ladder** — byte-weighted stack distances feed vectorized
  per-capacity hit counting, per-type tallies, and final-resident
  counting (:func:`split_ladder`, :func:`run_lru_ladder`);
* **FIFO** — a shadow recency-free queue replays
  :meth:`~repro.core.cache.Cache.reference` exactly, without entry or
  heap machinery;
* **Greedy-Dual keys** — the cost-model term of ``H(p)`` is
  precomputed per chunk (:meth:`~repro.core.cost.CostModel.cost_array`)
  and consumed through the policies' ``_hint_cost`` slot.

Which cell takes which kernel is decided in one place,
:func:`repro.simulation.engine.fast_path`.  Cells that fit none consume
ordinary resolved-tuple chunks via :meth:`CacheCell.process_chunk`,
decoded once per chunk from the columns.

Bit-identity caveat: array float ops round ``int64 → float64`` before
dividing where the scalar path divides exact integers, so identity is
guaranteed for sizes and capacities below 2**53 bytes — far above any
real trace.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost import ByteCost, ConstantCost, LatencyCost, PacketCost
from repro.observability.profiling import PhaseTimings, phase_timer
from repro.observability.trace import span as _span
from repro.simulation.engine import (
    DEFAULT_CHUNK_SIZE,
    CacheCell,
    SizeInterpretation,
    fast_path,
    resolver_key,
)
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
    scalar per group, preserving its arithmetic — including the
    ``ZeroDivisionError`` a zero previous size raises.
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
                delta = abs(size - previous) / previous
                if delta < tolerance or size > previous:
                    previous = size
                # else: interrupted transfer; the belief stays put.
            out[position] = previous
    return out


class ColumnarReferenceStream:
    """Resolves size-interpretation columns once per pass.

    Resolution state is keyed by
    :func:`~repro.simulation.engine.resolver_key` and memoized, so
    every cell sharing those knobs reads the same resolved column.
    """

    def __init__(self, trace):
        self.trace = trace
        self._resolved: Dict[tuple, np.ndarray] = {}
        self._transfers: Optional[np.ndarray] = None

    @property
    def transfers_clamped(self) -> np.ndarray:
        """``min(transfer, raw size)`` — the tuple transfer column."""
        if self._transfers is None:
            self._transfers = np.minimum(self.trace.transfers,
                                         self.trace.sizes)
        return self._transfers

    def resolved_sizes(self, key: tuple) -> np.ndarray:
        column = self._resolved.get(key)
        if column is None:
            column = self._resolve(key)
            self._resolved[key] = column
        return column

    def _resolve(self, key: tuple) -> np.ndarray:
        if key == ("trusted",):
            return self.trace.sizes
        interpretation, tolerance = key
        if interpretation == SizeInterpretation.ANY_CHANGE.value:
            # The detector's belief after any change is the logged
            # size itself, so the column resolves to the transfers.
            return self.trace.transfers
        return _resolve_paper(self.trace, tolerance)


# ----- requested-side boundary tallies --------------------------------------


def _tally_boundaries(trace, stream: ColumnarReferenceStream,
                      boundaries: Dict[int, Dict[DocumentType, list]],
                      ) -> None:
    """Measured requests/bytes per type for each warmup boundary.

    Integer masked column sums: order-independent, so exactly the
    totals per-request accounting accumulates.
    """
    codes = trace.type_codes
    transfers = stream.transfers_clamped
    for boundary, totals in boundaries.items():
        tail_codes = codes[boundary:]
        tail_transfers = transfers[boundary:]
        for code, doc_type in enumerate(DOCUMENT_TYPES):
            mask = tail_codes == code
            bucket = totals[doc_type]
            bucket[0] += int(np.count_nonzero(mask))
            bucket[1] += _exact_sum(tail_transfers[mask])


# ----- the exact all-capacities LRU ladder ----------------------------------


def stable_max_size(doc_ids: np.ndarray,
                    sizes: np.ndarray) -> Optional[int]:
    """The largest document size, or ``None`` if any document changes
    size within the trace.

    The trace-side precondition of both vectorized LRU paths (the
    ladder below and the network cascade in
    :mod:`repro.network.fastpath`): with one size per document there
    are no modification misses, and a cache at least this large never
    bypasses.  An empty trace has largest size 0.
    """
    if not len(doc_ids):
        return 0
    order = np.argsort(doc_ids, kind="stable")
    d_s = doc_ids[order]
    s_s = sizes[order]
    same_doc = d_s[1:] == d_s[:-1]
    if bool(np.any(same_doc & (s_s[1:] != s_s[:-1]))):
        return None
    return int(sizes.max())


def split_ladder(source, cells: Sequence[CacheCell]) -> tuple:
    """Partition ``cells`` into ``(ladder, rest, columns)``.

    ``ladder`` cells are served by :func:`run_lru_ladder` from
    ``columns`` — ``(doc_ids, sizes, clamped transfers, type codes)``
    of ``source``.  Config side they are
    :func:`~repro.simulation.engine.fast_path`'s ``"ladder"`` cells;
    trace side every document keeps one size across the trace and none
    exceeds the cell's capacity (so no bypasses, no invalidations — the
    regime where byte-bounded LRU obeys inclusion exactly).
    """
    candidates = [cell for cell in cells if fast_path(cell) == "ladder"]
    if not candidates:
        return [], cells, None
    sizes = source.sizes
    max_size = stable_max_size(source.doc_ids, sizes)
    if max_size is None:
        return [], cells, None
    ladder = [cell for cell in candidates
              if cell.config.capacity_bytes >= max_size]
    excluded = set(map(id, ladder))
    rest = [cell for cell in cells if id(cell) not in excluded]
    return ladder, rest, (source.doc_ids, sizes,
                          np.minimum(source.transfers, sizes),
                          source.type_codes)


def run_lru_ladder(doc_ids: np.ndarray, sizes: np.ndarray,
                   transfers: np.ndarray, codes: np.ndarray,
                   cells: Sequence[CacheCell]) -> None:
    """Serve eligible LRU cells from one vectorized stack-distance pass.

    Hits: a reference hits capacity ``C`` iff byte-weighted stack
    distance + document size ≤ ``C`` (exact under the preconditions
    checked by :func:`split_ladder`).  Evictions: admissions equal
    misses (every miss admits — nothing bypasses), so evictions =
    misses − residents at end of trace; the final resident set falls
    out of the last-reference recency order.

    The stack-distance Fenwick loop stays scalar (python-int exact);
    everything downstream — per-capacity hit tests, warmup masking,
    per-type hit/byte tallies, final-resident counting — runs as
    column ops.  All tallies are integers, so the results match
    per-request simulation exactly.
    """
    # Lazy: repro.analysis imports repro.simulation (tables -> results).
    from repro.analysis.stack_distance import weighted_stack_distances

    n = len(doc_ids)
    if n == 0:
        for cell in cells:
            cell._evictions_override = 0
        return
    distances = np.array(weighted_stack_distances(doc_ids.tolist(),
                                                  sizes.tolist()))
    needed = distances + sizes
    type_masks = [codes == code for code in range(len(DOCUMENT_TYPES))]
    measured_by_warmup: Dict[int, np.ndarray] = {}
    total_hits: List[int] = []
    for cell in cells:
        hit = needed <= cell.config.capacity_bytes
        total_hits.append(int(np.count_nonzero(hit)))
        warmup = cell._warmup
        measured = measured_by_warmup.get(warmup)
        if measured is None:
            measured = np.zeros(n, dtype=bool)
            measured[warmup:] = True
            measured_by_warmup[warmup] = measured
        measured_hit = hit & measured
        overall = cell._hit_overall
        overall[0] += int(np.count_nonzero(measured_hit))
        overall[1] += _exact_sum(transfers[measured_hit])
        for code, doc_type in enumerate(DOCUMENT_TYPES):
            typed = measured_hit & type_masks[code]
            bucket = cell._hit_by_type[doc_type]
            bucket[0] += int(np.count_nonzero(typed))
            bucket[1] += _exact_sum(transfers[typed])

    # Final residents: walk last references in recency order and count
    # how many fit each capacity (prefix bytes + own size <= C).
    reversed_docs = doc_ids[::-1]
    _, first_in_reversed = np.unique(reversed_docs, return_index=True)
    last_positions = (n - 1) - first_in_reversed
    descending = np.sort(last_positions)[::-1]
    last_sizes = sizes[descending].astype(np.int64)
    capacities = [cell.config.capacity_bytes for cell in cells]
    if float(last_sizes.sum(dtype=np.float64)) >= float(_SUM_GUARD):
        residents = [0] * len(cells)
        max_capacity = max(capacities)
        cumulative = 0
        for size in last_sizes.tolist():
            if cumulative > max_capacity:
                break
            for i, capacity in enumerate(capacities):
                if cumulative + size <= capacity:
                    residents[i] += 1
            cumulative += size
    else:
        prefix = np.zeros(len(last_sizes), dtype=np.int64)
        if len(last_sizes) > 1:
            prefix[1:] = np.cumsum(last_sizes[:-1], dtype=np.int64)
        fits = prefix + last_sizes
        residents = [int(np.count_nonzero(fits <= capacity))
                     for capacity in capacities]
    for i, cell in enumerate(cells):
        admissions = n - total_hits[i]
        cell._evictions_override = admissions - residents[i]


# ----- the FIFO shadow queue ------------------------------------------------


def _run_fifo_cell(cell: CacheCell, doc_list: list, size_list: list,
                   code_list: list, transfer_list: list) -> None:
    """Replay :meth:`Cache.reference` for a deferred FIFO cell.

    FIFO never reorders on hits, so residency is just an insertion-
    ordered ``doc id -> size`` dict: hit iff resident at the same size,
    a size change invalidates and readmits at the queue tail, anything
    larger than the cache bypasses, and eviction pops the front until
    the newcomer fits.  Counters land on the real cache object so
    :meth:`CacheCell.finalize` reads them unchanged.
    """
    cache = cell.cache
    capacity = cache.capacity_bytes
    warmup = cell._warmup
    resident: "OrderedDict[int, int]" = OrderedDict()
    used = 0
    hits = misses = evictions = bypasses = invalidations = 0
    overall = cell._hit_overall
    by_type = cell._hit_by_type
    types = DOCUMENT_TYPES
    get = resident.get
    pop_front = resident.popitem
    index = 0
    for doc, size, code, transfer in zip(doc_list, size_list,
                                         code_list, transfer_list):
        current = get(doc)
        if current is not None and current == size:
            hits += 1
            if index >= warmup:
                overall[0] += 1
                overall[1] += transfer
                bucket = by_type[types[code]]
                bucket[0] += 1
                bucket[1] += transfer
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
    cache.hits += hits
    cache.misses += misses
    cache.evictions += evictions
    cache.bypasses += bypasses
    cache.invalidations += invalidations


# ----- chunked tuple dispatch for everything else ---------------------------


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


def _drive_chunks(trace, stream: ColumnarReferenceStream,
                  plain: Dict[tuple, List[CacheCell]],
                  hinted: Dict[tuple, List[tuple]]) -> None:
    """Decode resolved-tuple chunks once and feed every consumer."""
    n = len(trace)
    keys = set(plain) | set(hinted)
    if not keys or n == 0:
        return
    urls = trace.urls()
    types = DOCUMENT_TYPES
    doc = trace.doc_ids
    codes = trace.type_codes
    transfers = stream.transfers_clamped
    raw_sizes = trace.sizes
    timestamps = trace.timestamps
    resolved = {key: stream.resolved_sizes(key) for key in keys}
    for start in range(0, n, DEFAULT_CHUNK_SIZE):
        end = min(start + DEFAULT_CHUNK_SIZE, n)
        doc_list = doc[start:end].tolist()
        code_list = codes[start:end].tolist()
        transfer_list = transfers[start:end].tolist()
        raw_list = raw_sizes[start:end].tolist()
        time_list = timestamps[start:end].tolist()
        url_chunk = [urls[d] for d in doc_list]
        type_chunk = [types[c] for c in code_list]
        cost_cache: Dict[tuple, list] = {}
        for key in keys:
            resolved_slice = resolved[key][start:end]
            chunk = list(zip(url_chunk, resolved_slice.tolist(),
                             type_chunk, transfer_list, raw_list,
                             time_list))
            for cell in plain.get(key, ()):
                cell.process_chunk(chunk, start)
            pairs = hinted.get(key)
            if pairs:
                clamped = None
                for cell, model, model_key in pairs:
                    costs = cost_cache.get((key, model_key))
                    if costs is None:
                        if clamped is None:
                            clamped = np.maximum(resolved_slice, 1)
                        costs = model.cost_array(clamped).tolist()
                        cost_cache[(key, model_key)] = costs
                    cell.process_chunk_hinted(chunk, start, costs)


# ----- the columnar pass ----------------------------------------------------


def drive_columnar(trace, cells: Sequence[CacheCell],
                   boundaries: Dict[int, Dict[DocumentType, list]],
                   timings: PhaseTimings) -> int:
    """Drive ``cells`` over a trace's columns and tally ``boundaries``.

    The body of :func:`repro.simulation.engine.run_cells` (which has
    already taken the LRU-ladder cells out of ``cells``).  Returns how
    many cells the FIFO shadow queue served.
    """
    stream = ColumnarReferenceStream(trace)
    keys = set()
    fifo: List[Tuple[CacheCell, tuple]] = []
    plain: Dict[tuple, List[CacheCell]] = {}
    hinted: Dict[tuple, List[tuple]] = {}
    for cell in cells:
        key = resolver_key(cell.config)
        keys.add(key)
        path = fast_path(cell)
        if path == "fifo":
            fifo.append((cell, key))
        elif path == "hinted":
            model = cell.policy.cost_model
            hinted.setdefault(key, []).append(
                (cell, model, _cost_model_key(model)))
        else:
            plain.setdefault(key, []).append(cell)
    with _span("resolve"), phase_timer("resolve", timings):
        for key in keys:
            stream.resolved_sizes(key)
        if boundaries:
            _tally_boundaries(trace, stream, boundaries)
    with _span("drive"), phase_timer("pass", timings):
        _drive_chunks(trace, stream, plain, hinted)
        if fifo:
            doc_list = trace.doc_ids.tolist()
            code_list = trace.type_codes.tolist()
            transfer_list = stream.transfers_clamped.tolist()
            for cell, key in fifo:
                size_list = stream.resolved_sizes(key).tolist()
                _run_fifo_cell(cell, doc_list, size_list,
                               code_list, transfer_list)
    return len(fifo)
