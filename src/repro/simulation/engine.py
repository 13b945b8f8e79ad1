"""The shared-pass simulation engine: columns in, cells out.

Sweeping the paper's grids costs ``O(cells × requests)`` when every
(policy, capacity) cell re-iterates the trace: trace iteration,
:class:`SizeInterpretation` resolution, and modification/staleness
reconstruction are identical across cells.  :func:`run_cells` pays them
once per pass:

* **columns** — the pass reads one thing, the trace's integer columns
  (:func:`repro.trace.columnar.columns_of`: an ``.rcol`` file is
  mmap'd, anything else is gathered once).  Size resolution runs as
  column operations, once per :func:`resolver_key`, whatever the number
  of cells (:mod:`repro.simulation.vectorized`).

* :class:`CacheCell` — one cache + policy +
  :class:`~repro.simulation.metrics.TypeMetrics` (plus optional
  occupancy/latency/cost accounting) consuming resolved references.
  Cells are independent: N of them ride the same pass, so a sweep
  costs one trace iteration instead of N.

:func:`run_cells` returns the cells'
:class:`~repro.simulation.results.SimulationResult`\\ s in input
order, **bit-identical** to running each cell through the per-request
reference, :class:`~repro.simulation.simulator.CacheSimulator`, alone.
Identity holds because (a) each cell still sees every reference in
trace order, through its kernel or behind the one pre-reference hook
(TTL, :meth:`CacheCell.step`), and every kernel only says which
references hit; (b) the integers — the warm-up-gated per-type counts
and bytes — are masked integer column sums
(:class:`repro.simulation.vectorized.Tally`), order-independent; and
(c) the floats — cost and latency — are left folds over the measured
rows in trace order (:meth:`CacheCell.account`), the same additions in
the same order per accumulator as the reference's request loop, and
occupancy is snapshotted at the same positions by cutting chunks at
the sampling interval (:meth:`CacheCell.run_chunk`).

Greedy-Dual heap replay
-----------------------

GDS, GDSF, GD* and LFU-DA are one scheme — a priority queue on
``H = L + u(p)`` whose inflation ``L`` is the last victim's key — and
:func:`repro.simulation.vectorized.replay_heap` replays it exactly
without :meth:`~repro.core.cache.Cache.reference`: residents are a dict
of live heap tuples, and each key is ``L`` plus the member's own
base-value function, the one its ``_key`` calls
(:data:`~repro.core.heap_policy.HEAP_KERNEL`, by exact class).  GD*
feeds its own β estimator the same gaps in the same order.  Only the
cells it cannot take still run the object path with precomputed key
costs (:meth:`CacheCell.process_chunk_hinted`): typed GD*, Landlord and
occupancy-sampling cells, whose snapshots read cache entries.

LRU inclusion fast path
-----------------------

A byte-bounded LRU cache is a stack algorithm whenever no reference
bypasses the cache and no resident copy is invalidated: a reference
then hits a capacity-``C`` cache **iff** its byte-weighted stack
distance plus the document size is ≤ ``C``.  (Eviction of ``d``
requires residents above ``d`` plus the incoming document to exceed
``C − size(d)``, and all of those are intervening distinct documents;
conversely at a hit every intervening document is resident above
``d``.)  Under those preconditions — ``TRUSTED`` sizes, per-URL sizes
stable across the trace, every document no larger than the capacity,
no TTL model or occupancy sampling, and plain LRU — the entire LRU
capacity ladder is served by **one** stack-distance pass
(:func:`repro.simulation.vectorized.run_lru_ladder`) over four of the
columns; hit and eviction counts are exact.  Cells that fail any
precondition fall back to the queue: LRU and FIFO are one insertion-
ordered queue that differs only in whether a hit moves its document
(:data:`QUEUE_RECENCY`), and
:func:`repro.simulation.vectorized.replay_queue` replays either exactly,
bypasses and size-change invalidations included.  :func:`fast_path` is
the one place that decides, from a cell's config, which kernel besides
the plain loop (:meth:`CacheCell.process_chunk`) may serve it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import add
from typing import (
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.cache import Cache
from repro.core.fifo import FIFOPolicy
from repro.core.gdstar import GDStarPolicy
from repro.core.heap_policy import HEAP_KERNEL, GreedyDualPolicy
from repro.core.lru import LRUPolicy
from repro.core.policy import AccessOutcome, ReplacementPolicy
from repro.core.registry import make_policy
from repro.errors import ConfigurationError
from repro.observability.events import emit
from repro.observability.metrics import get_registry
from repro.observability.profiling import PhaseTimings, phase_timer
from repro.observability.trace import span as _span
from repro.simulation.freshness import FreshnessTracker, TTLModel
from repro.simulation.metrics import RateAccumulator, TypeMetrics
from repro.simulation.occupancy import OccupancyTracker
from repro.simulation.results import SimulationResult
from repro.types import DOCUMENT_TYPES, DocumentType, Request, Trace

#: Requests decoded per chunk of the shared pass.  Chunks amortize the
#: per-slice overhead while keeping the decoded lists cache-warm for
#: every cell that consumes them.
DEFAULT_CHUNK_SIZE = 4096


class SizeInterpretation(enum.Enum):
    """How request sizes are turned into document sizes."""

    TRUSTED = "trusted"
    PAPER_RULE = "paper-rule"
    ANY_CHANGE = "any-change"


@dataclass
class SimulationConfig:
    """Knobs for one simulation run.

    Attributes:
        capacity_bytes: Cache capacity.
        policy: Policy name (see :mod:`repro.core.registry`) or a
            ready-built policy instance.
        warmup_fraction: Leading fraction of requests that fill the
            cache without being measured (paper: 10 %).
        size_interpretation: See :mod:`repro.simulation.simulator`.
        occupancy_interval: Sample per-type occupancy every N requests;
            0 disables tracking.
        modification_tolerance: The 5 % threshold of the paper rule.
        ttl_model: Optional per-type freshness lifetimes; a resident
            copy older than its TTL (in trace time) is invalidated and
            the reference counts as a miss.  None (the default, and
            the paper's methodology) never expires documents.
    """

    capacity_bytes: int
    policy: Union[str, ReplacementPolicy] = "lru"
    warmup_fraction: float = 0.10
    size_interpretation: SizeInterpretation = SizeInterpretation.TRUSTED
    occupancy_interval: int = 0
    modification_tolerance: float = 0.05
    ttl_model: Optional[TTLModel] = None
    #: When set, per-request retrieval costs under this model are
    #: accumulated so results expose ``cost_savings_ratio`` — the
    #: objective a Greedy-Dual policy under the same model maximizes.
    report_cost_model: Optional[object] = None
    #: When set, per-request service times under this model are
    #: accumulated; the result carries a
    #: :class:`~repro.simulation.latency.LatencyMetrics`.
    latency_model: Optional[object] = None

    def validate(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity_bytes must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigurationError("warmup_fraction must be in [0, 1)")
        if self.occupancy_interval < 0:
            raise ConfigurationError("occupancy_interval must be >= 0")


# ----- stage (a): resolved columns -----------------------------------------


def resolver_key(config: SimulationConfig) -> tuple:
    """What a resolved size column depends on: every cell sharing this
    key reads the same column, so size resolution runs once per key
    however many cells ride the pass."""
    interp = config.size_interpretation
    if interp is SizeInterpretation.TRUSTED:
        return ("trusted",)
    return (interp.value, config.modification_tolerance)


# ----- stage (b): cache cells -----------------------------------------------


def _fold_costs(acc: RateAccumulator, costs: List[float],
                hits: List[bool]) -> None:
    """Add one population's costs to ``acc`` left to right, and its hit
    rows' costs to the saved side: the additions
    :meth:`~repro.simulation.metrics.RateAccumulator.record` makes, in
    its order (no ``sum()``, whose float rounding differs)."""
    acc.requested_cost = reduce(add, costs, acc.requested_cost)
    acc.saved_cost = reduce(add, compress(costs, hits), acc.saved_cost)


class CacheCell:
    """One cache + policy + metrics consuming resolved references.

    A cell is the per-configuration remainder of the old monolithic
    simulator: it owns the cache, the policy, the metrics, and the
    optional occupancy/latency/cost/freshness accounting, but not the
    trace walk or size resolution.  Every driver feeds it the same way:
    a kernel turns a chunk of references into a hit column — the plain
    loop (:meth:`process_chunk`, whose TTL hook is :meth:`step`) or one
    of :func:`fast_path`'s specialisations — and :meth:`account` counts
    the whole column once: integers by
    :class:`~repro.simulation.vectorized.Tally`, cost and latency as
    ordered folds over the measured rows.
    """

    def __init__(self, config: SimulationConfig, cache=None):
        """``cache`` overrides the config's capacity/policy pair with a
        prebuilt cache-compatible object (e.g. a
        :class:`~repro.core.partitioned.PartitionedCache`)."""
        config.validate()
        self.config = config
        if cache is not None:
            self.cache = cache
            self.policy = getattr(cache, "policy", None)
        else:
            if isinstance(config.policy, ReplacementPolicy):
                self.policy = config.policy
            else:
                self.policy = make_policy(config.policy)
            self.cache = Cache(config.capacity_bytes, self.policy)
        self.metrics = TypeMetrics()
        self.occupancy: Optional[OccupancyTracker] = None
        if config.occupancy_interval:
            self.occupancy = OccupancyTracker(config.occupancy_interval)
        self._freshness: Optional[FreshnessTracker] = None
        if config.ttl_model is not None:
            self._freshness = FreshnessTracker(config.ttl_model)
        self.latency = None
        if config.latency_model is not None:
            from repro.simulation.latency import LatencyMetrics
            self.latency = LatencyMetrics(model=config.latency_model)
        self._cost_model = config.report_cost_model
        self._warmup = 0

    # -- pass protocol ----------------------------------------------------

    def begin_run(self, warmup_requests: int) -> None:
        """Arm the cell for one pass with an absolute warmup count."""
        self._warmup = warmup_requests

    def step(self, url: str, size: int, doc_type: DocumentType,
             timestamp: float) -> bool:
        """One reference behind the TTL hook (a resident copy past its
        lifetime is invalidated first); True on a hit."""
        cache = self.cache
        freshness = self._freshness
        if freshness is not None and url in cache:
            if freshness.expired(url, doc_type, timestamp):
                cache.invalidate(url)
        hit = cache.reference(url, size, doc_type) is AccessOutcome.HIT
        if freshness is not None and not hit:
            freshness.on_fetch(url, timestamp)
        return hit

    def process_chunk(self, urls: Sequence[str], sizes: Sequence[int],
                      doc_types: Sequence[DocumentType],
                      timestamps: Sequence[float]) -> List[bool]:
        """The plain loop: one chunk's hit column (reference j is
        ``urls[j]``, resolved ``sizes[j]``, ``doc_types[j]``)."""
        if self._freshness is not None:
            return list(map(self.step, urls, sizes, doc_types, timestamps))
        reference = self.cache.reference
        hit_outcome = AccessOutcome.HIT
        return [reference(url, size, doc_type) is hit_outcome
                for url, size, doc_type in zip(urls, sizes, doc_types)]

    def process_chunk_hinted(self, urls: Sequence[str], sizes: Sequence[int],
                             doc_types: Sequence[DocumentType],
                             costs: Sequence[float]) -> List[bool]:
        """The plain loop with per-reference Greedy-Dual key costs.

        ``costs[j]``, the policy cost model's cost of reference j's
        clamped size, is precomputed as one array op by the columnar
        engine, and the policy consumes it through its ``_hint_cost``
        slot instead of recomputing ``cost_model.cost(size)``.
        Only the columnar driver calls this, and only on the
        :func:`fast_path` ``"hinted"`` cells: typed GD* and Landlord,
        and the cost-model members of an occupancy-sampling cell (the
        heap replay takes the rest of the family).
        """
        reference = self.cache.reference
        policy = self.policy
        hit_outcome = AccessOutcome.HIT
        hits: List[bool] = []
        append = hits.append
        try:
            for url, size, doc_type, cost in zip(urls, sizes, doc_types,
                                                 costs):
                policy._hint_cost = cost
                append(reference(url, size, doc_type) is hit_outcome)
        finally:
            policy._hint_cost = None
        return hits

    def run_chunk(self, kernel, start: int, *columns) -> List[bool]:
        """``kernel(*columns)`` over the chunk at 0-based row ``start``.

        An occupancy-sampling cell cuts the chunk at every multiple of
        its interval and snapshots after the cut, so a sample sees the
        cache the reference sees at that (1-based) position.
        """
        occupancy = self.occupancy
        if occupancy is None:
            return kernel(*columns)
        interval = occupancy.sample_interval
        n = len(columns[0])
        cuts = [0, *range(interval - start % interval, n, interval), n]
        hits: List[bool] = []
        for lo, hi in zip(cuts, cuts[1:]):
            hits += kernel(*(column[lo:hi] for column in columns))
            occupancy.maybe_sample(self.cache, start + hi)
        return hits

    def account(self, tally, hits, columns) -> None:
        """Count one pass's boolean hit column (one row per request of
        ``columns``) over the rows past the warm-up.

        Integers come from ``tally``; cost and latency are left folds
        over the measured rows in trace order, making per accumulator
        the additions and :class:`~repro.simulation.latency.LatencyMetrics`
        calls the reference makes request by request.
        """
        warmup = self._warmup
        metrics = self.metrics
        metrics.add(tally.totals(warmup), tally.totals(warmup, hits))
        if self._cost_model is None and self.latency is None:
            return
        codes = columns.type_codes[warmup:]
        hit_list = hits[warmup:].tolist()
        if self._cost_model is not None:
            costs = list(map(self._cost_model.cost,
                             columns.sizes[warmup:].tolist()))
            _fold_costs(metrics.overall, costs, hit_list)
            for code, doc_type in enumerate(DOCUMENT_TYPES):
                typed = (codes == code).tolist()
                _fold_costs(metrics.by_type[doc_type],
                            list(compress(costs, typed)),
                            list(compress(hit_list, typed)))
        if self.latency is not None:
            sent = tally.transfers[warmup:].tolist()
            for code, hit, nbytes in zip(codes.tolist(), hit_list, sent):
                self.latency.record(DOCUMENT_TYPES[code], hit, nbytes)
                self.latency.record_baseline(nbytes)

    def finalize(self, trace_name: str, total_requests: int,
                 warmup: Optional[int] = None) -> SimulationResult:
        """Build the result from the cell's metrics and counters."""
        final_beta = None
        if isinstance(self.policy, GDStarPolicy):
            final_beta = self.policy.beta
        policy_name = (self.policy.name if self.policy is not None
                       else type(self.cache).__name__.lower())
        ttl_expiries = (self._freshness.expiries
                        if self._freshness is not None else None)
        return SimulationResult(
            policy=policy_name,
            capacity_bytes=self.config.capacity_bytes,
            trace_name=trace_name,
            total_requests=total_requests,
            warmup_requests=self._warmup if warmup is None else warmup,
            metrics=self.metrics,
            occupancy=self.occupancy,
            evictions=self.cache.evictions,
            invalidations=self.cache.invalidations,
            bypasses=self.cache.bypasses,
            final_beta=final_beta,
            ttl_expiries=ttl_expiries,
            latency=self.latency,
        )


# ----- the shared pass ------------------------------------------------------


#: The policies :func:`~repro.simulation.vectorized.replay_queue`
#: replays exactly, each with its ``recency`` flag: an LRU hit moves its
#: document to the back of the queue, a FIFO hit leaves it in place.
#: Keyed by exact class, so a subclass (``LRUThresholdPolicy``, whose
#: admissions differ) is not replayed.
QUEUE_RECENCY = {LRUPolicy: True, FIFOPolicy: False}


def queue_recency(policy: Union[str, ReplacementPolicy]) -> Optional[bool]:
    """The ``recency`` flag the queue replays ``policy`` with, or
    ``None`` if it does not replay it.  A policy instance is looked up
    by its exact class, a registry name by the class's name."""
    if isinstance(policy, str):
        return next((recency for kind, recency in QUEUE_RECENCY.items()
                     if kind.name == policy), None)
    return QUEUE_RECENCY.get(type(policy))


def fast_path(cell: CacheCell) -> Optional[str]:
    """Which kernel besides the plain loop may serve ``cell``.

    The config-side eligibility: ``"queue"`` (a :data:`QUEUE_RECENCY`
    policy: the queue replay, or the all-capacities LRU ladder where
    :func:`repro.simulation.vectorized.split_ladder` finds its
    remaining conditions), ``"heap"`` (a
    :data:`~repro.core.heap_policy.HEAP_KERNEL` member — GDS, GDSF, GD*,
    LFU-DA — replayed by :func:`repro.simulation.vectorized.replay_heap`),
    ``"hinted"`` (any other :class:`~repro.core.heap_policy.GreedyDualPolicy`
    with a cost model — typed GD*, Landlord — and the cost-model members
    of an occupancy-sampling cell, fed precomputed key costs), or
    ``None`` (the plain loop, :meth:`CacheCell.process_chunk`).  Every
    kernel needs a plain :class:`~repro.core.cache.Cache` and no TTL
    hook; occupancy sampling also rules out the queue, the ladder and
    the heap replay, which keep no cache entries to snapshot.  Cost and
    latency ride any kernel.
    """
    if type(cell.cache) is not Cache or cell.config.ttl_model is not None:
        return None
    if cell.occupancy is None:
        if queue_recency(cell.policy) is not None:
            return "queue"
        if type(cell.policy) in HEAP_KERNEL:
            return "heap"
    if (isinstance(cell.policy, GreedyDualPolicy)
            and cell.policy.cost_model is not None):
        return "hinted"
    return None


def run_cells(trace: Union[Trace, Sequence[Request], Iterable[Request]],
              configs: Sequence[Union[SimulationConfig, CacheCell]],
              trace_name: Optional[str] = None,
              ) -> List[SimulationResult]:
    """Run every cell over the trace in **one shared pass**.

    The single driver between a trace and any number of cells: sweeps,
    the parallel runner's batches, and the experiment service all end
    here.

    Args:
        trace: The driving workload — anything
            :func:`repro.trace.columnar.columns_of` accepts: a
            :class:`~repro.trace.columnar.ColumnarTrace` is read in
            place; a :class:`~repro.types.Trace`, request sequence or
            request iterator is gathered into columns once.
        configs: One :class:`SimulationConfig` (or prebuilt
            :class:`CacheCell`, whose cache has served nothing yet:
            the kernels replay from an empty cache) per cell.
        trace_name: Overrides the trace's name in the results.

    Returns results in input order, bit-identical to running each
    config through :class:`~repro.simulation.simulator.CacheSimulator`.
    """
    # Lazy: the column kernels import this module.
    from repro.simulation import vectorized
    from repro.trace.columnar import columns_of

    timings = PhaseTimings()
    with phase_timer("resolve", timings):
        columns = columns_of(trace)
    total = len(columns)
    name = trace_name or columns.name
    cells = [config if isinstance(config, CacheCell) else CacheCell(config)
             for config in configs]
    for cell in cells:
        cache = cell.cache
        if cache.hits or cache.misses or len(cache):
            raise ConfigurationError(
                "run_cells starts every cell from an empty cache; this "
                "cell's cache has already served references")
        cell.begin_run(int(total * cell.config.warmup_fraction))
    emit("pass_started", cells=len(cells), requests=total)
    pass_span = _span("pass", cells=len(cells), requests=total, trace=name)
    with pass_span:
        tally = vectorized.Tally.of(columns)
        ladder, rest, order = vectorized.split_ladder(columns, cells)
        pass_span.set_attribute("lru_ladder_cells", len(ladder))
        n_queue, n_heap = vectorized.drive_columnar(columns, rest, tally,
                                                    timings)
        pass_span.set_attribute("queue_cells", n_queue)
        pass_span.set_attribute("heap_cells", n_heap)
        if ladder:
            with _span("lru_ladder", cells=len(ladder)), \
                    phase_timer("lru_ladder", timings):
                vectorized.run_lru_ladder(columns, tally, ladder, order)
        with _span("aggregate"), phase_timer("aggregate", timings):
            results = [cell.finalize(name, total) for cell in cells]
    _publish_pass_telemetry(timings, len(cells), len(ladder), n_queue,
                            n_heap, total)
    return results


def _publish_pass_telemetry(timings: PhaseTimings, n_cells: int,
                            n_ladder: int, n_queue: int, n_heap: int,
                            total_requests: int) -> None:
    """Batch one pass's aggregates into the metrics registry — one
    update per pass, never one per request or per cell."""
    registry = get_registry()
    if registry.enabled:
        registry.counter("engine_passes_total").inc()
        registry.histogram("engine_cells_per_pass").observe(n_cells)
        if n_ladder:
            registry.counter("engine_lru_ladder_cells_total").inc(n_ladder)
        if n_queue:
            registry.counter("engine_queue_cells_total").inc(n_queue)
        if n_heap:
            registry.counter("engine_heap_cells_total").inc(n_heap)
        registry.counter("engine_pass_requests_total").inc(total_requests)
        for phase, seconds in timings.as_dict().items():
            registry.histogram("engine_phase_seconds",
                               phase=phase).observe(seconds)
    emit("pass_finished", cells=n_cells, requests=total_requests,
         duration_seconds=round(timings.total, 6),
         lru_ladder_cells=n_ladder, queue_cells=n_queue,
         heap_cells=n_heap,
         phase_seconds={k: round(v, 6)
                        for k, v in timings.as_dict().items()})
