"""Load-replay: fire a workload trace at a sharded served cache.

The harness reads the trace's columns
(:func:`~repro.trace.columnar.columns_of`) and partitions them by the
cache's own hash ring — the owner is resolved once per document of the
url table, and each shard gets its rows in trace order as a
:class:`~repro.trace.columnar.TraceColumns` substream (an untimed
pre-pass).  It then runs **one thread per shard**, each firing its
substream in order as fast as the lock allows and keeping a hit column.
One thread per shard keeps each shard's request order identical to its
substream, which is what makes the replayed hit sequence reproducible:
the served cache must then match a
:func:`~repro.simulation.engine.run_cells` simulation of the same
substream *exactly* — and, independently, land within the Che model's
validation tolerance.  Per-type counting is the simulator's own: each
shard's hit column goes through one
:class:`~repro.simulation.vectorized.Tally` into one
:class:`~repro.simulation.metrics.TypeMetrics`.
:func:`validate_replay` computes both comparisons, from one calibration
of the whole trace narrowed per shard; CI gates on them (triple-path
validation: daemon, simulator, and analytical model mutually checking
each other).

Throughput instrumentation is sampled: every ``latency_sample_every``-th
request is timed with ``perf_counter`` into a reused observability
:class:`~repro.observability.metrics.Histogram` (µs-range buckets), so
the hot loop stays cheap enough to measure hundreds of thousands of
requests per second from pure Python.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.policy import AccessOutcome
from repro.errors import ConfigurationError
from repro.model.catalog import catalog_from_trace
from repro.model.che import predict
from repro.model.solver import MODEL_POLICIES, normalize_policy
from repro.observability.events import emit
from repro.observability.metrics import Histogram
from repro.serving.sharding import ShardedCache, split_budget
from repro.simulation.engine import SimulationConfig, run_cells
from repro.simulation.metrics import TypeMetrics
from repro.simulation.vectorized import Tally, decode_chunks
from repro.trace.columnar import TraceColumns, columns_of

#: Latency buckets in seconds: 1 µs to 100 ms.  A lock-plus-dict
#: request lands in the low microseconds; anything in the ms buckets
#: means lock convoying worth investigating.
LATENCY_BUCKETS = (1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5,
                   1e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs for one replay run.

    ``capacity_bytes`` is the *aggregate* budget, split uniformly over
    ``n_shards`` (matching :func:`~repro.serving.sharding.split_budget`
    so validation can rebuild identical per-shard capacities).
    """

    capacity_bytes: int
    n_shards: int = 4
    policy: str = "lru"
    vnodes: int = 128
    latency_sample_every: int = 16

    def validate(self) -> None:
        if self.capacity_bytes < self.n_shards:
            raise ConfigurationError(
                f"capacity {self.capacity_bytes} cannot cover "
                f"{self.n_shards} shards")
        if self.n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if self.latency_sample_every < 1:
            raise ConfigurationError(
                "latency_sample_every must be >= 1")


@dataclass
class ShardReplayResult:
    """What one shard saw during the replay."""

    shard: str
    requests: int
    hits: int
    misses: int
    capacity_bytes: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {"shard": self.shard, "requests": self.requests,
                "hits": self.hits, "misses": self.misses,
                "capacity_bytes": self.capacity_bytes,
                "hit_rate": self.hit_rate}


@dataclass
class ReplayReport:
    """Everything one replay produced."""

    trace_name: str
    policy: str
    n_shards: int
    capacity_bytes: int
    requests: int
    hits: int
    misses: int
    duration_seconds: float
    requests_per_second: float
    per_shard: List[ShardReplayResult]
    per_type_hit_rate: Dict[str, float]
    latency_quantiles: Dict[str, float]
    latency_samples: int
    hit_rate: float = field(init=False)

    def __post_init__(self):
        lookups = self.hits + self.misses
        self.hit_rate = self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "trace_name": self.trace_name, "policy": self.policy,
            "n_shards": self.n_shards,
            "capacity_bytes": self.capacity_bytes,
            "requests": self.requests, "hits": self.hits,
            "misses": self.misses, "hit_rate": self.hit_rate,
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "per_shard": [s.as_dict() for s in self.per_shard],
            "per_type_hit_rate": dict(self.per_type_hit_rate),
            "latency_quantiles": dict(self.latency_quantiles),
            "latency_samples": self.latency_samples,
        }


@dataclass
class ShardValidation:
    """Replay vs. simulator (and optionally model) for one shard."""

    shard: str
    requests: int
    replayed_hit_rate: float
    simulated_hit_rate: float
    model_hit_rate: Optional[float]

    @property
    def sim_error(self) -> float:
        return abs(self.replayed_hit_rate - self.simulated_hit_rate)

    @property
    def model_error(self) -> Optional[float]:
        if self.model_hit_rate is None:
            return None
        return abs(self.replayed_hit_rate - self.model_hit_rate)

    def as_dict(self) -> dict:
        return {"shard": self.shard, "requests": self.requests,
                "replayed_hit_rate": self.replayed_hit_rate,
                "simulated_hit_rate": self.simulated_hit_rate,
                "model_hit_rate": self.model_hit_rate,
                "sim_error": self.sim_error,
                "model_error": self.model_error}


@dataclass
class ReplayValidation:
    """The triple-path verdict: replay vs. simulation vs. model."""

    report: ReplayReport
    shards: List[ShardValidation]

    @property
    def sim_mae(self) -> float:
        return (sum(s.sim_error for s in self.shards)
                / len(self.shards) if self.shards else 0.0)

    @property
    def sim_max_error(self) -> float:
        return max((s.sim_error for s in self.shards), default=0.0)

    @property
    def model_mae(self) -> Optional[float]:
        errors = [s.model_error for s in self.shards
                  if s.model_error is not None]
        if not errors:
            return None
        return sum(errors) / len(errors)

    @property
    def model_max_error(self) -> Optional[float]:
        errors = [s.model_error for s in self.shards
                  if s.model_error is not None]
        return max(errors) if errors else None

    def as_dict(self) -> dict:
        return {"report": self.report.as_dict(),
                "shards": [s.as_dict() for s in self.shards],
                "sim_mae": self.sim_mae,
                "sim_max_error": self.sim_max_error,
                "model_mae": self.model_mae,
                "model_max_error": self.model_max_error}


def partition_trace(trace, cache: ShardedCache
                    ) -> Dict[str, TraceColumns]:
    """Each shard's rows of ``trace``, in trace order, as columns.

    The owner is resolved once per entry of the url table and gathered
    per row through the doc-id column, so the ring is asked once per
    document whatever its memo holds.
    """
    columns = columns_of(trace)
    ring = cache.ring
    shard_of = {name: index for index, name in enumerate(ring.shards)}
    owners = np.array([shard_of[ring.owner(url)]
                       for url in columns.urls()], dtype=np.intp)
    row_owners = owners[columns.doc_ids]
    return {name: TraceColumns.take(columns,
                                    np.flatnonzero(row_owners == index))
            for name, index in shard_of.items()}


class _ShardWorker(threading.Thread):
    """Fires one shard's substream in order and keeps its hit column
    (no shared hot state)."""

    def __init__(self, cache: ShardedCache, shard: str,
                 substream: TraceColumns, sample_every: int,
                 start_gate: threading.Event):
        super().__init__(name=f"replay-{shard}", daemon=True)
        self.cache = cache
        self.shard_name = shard
        self.substream = substream
        self.sample_every = sample_every
        self.start_gate = start_gate
        # Decoded before the start gate, so only requests are timed.
        self.rows: List[tuple] = []
        for start, end, urls, types in decode_chunks(substream):
            self.rows.extend(zip(urls, substream.sizes[start:end].tolist(),
                                 types))
        self.hit_column: List[bool] = []
        self.latencies: List[float] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            shard = self.cache.shard(self.shard_name)
            sample_every = self.sample_every
            perf = time.perf_counter
            hit = AccessOutcome.HIT
            record = self.hit_column.append
            latencies = self.latencies
            self.start_gate.wait()
            for index, (url, size, doc_type) in enumerate(self.rows):
                if index % sample_every:
                    outcome = shard.request(url, size, doc_type)
                else:
                    began = perf()
                    outcome = shard.request(url, size, doc_type)
                    latencies.append(perf() - began)
                record(outcome is hit)
        except BaseException as exc:  # surfaced by replay()
            self.error = exc


def replay(trace, config: ReplayConfig,
           cache: Optional[ShardedCache] = None) -> ReplayReport:
    """Replay a trace against a sharded cache, one thread per shard.

    Pass ``cache`` to replay against an existing instance (its shard
    count/policy must match the config); otherwise a fresh
    :class:`ShardedCache` is built from the config.
    """
    config.validate()
    if cache is None:
        cache = ShardedCache(config.capacity_bytes,
                             n_shards=config.n_shards,
                             policy=config.policy,
                             vnodes=config.vnodes)
    elif len(cache.shard_names) != config.n_shards:
        raise ConfigurationError(
            f"cache has {len(cache.shard_names)} shards, config says "
            f"{config.n_shards}")
    substreams = partition_trace(trace, cache)
    start_gate = threading.Event()
    workers = [
        _ShardWorker(cache, shard, substreams[shard],
                     config.latency_sample_every, start_gate)
        for shard in cache.shard_names]
    for worker in workers:
        worker.start()
    began = time.perf_counter()
    start_gate.set()
    for worker in workers:
        worker.join()
    duration = time.perf_counter() - began
    for worker in workers:
        if worker.error is not None:
            raise worker.error

    histogram = Histogram("serving_request_latency_seconds",
                          buckets=LATENCY_BUCKETS)
    for worker in workers:
        for value in worker.latencies:
            histogram.observe(value)

    per_shard = []
    for worker in workers:
        stats = cache.shard(worker.shard_name).stats()
        per_shard.append(ShardReplayResult(
            shard=worker.shard_name, requests=len(worker.substream),
            hits=stats.hits, misses=stats.misses,
            capacity_bytes=stats.capacity_bytes))

    metrics = TypeMetrics()
    for worker in workers:
        tally = Tally.of(worker.substream)
        metrics.add(tally.totals(0), tally.totals(
            0, np.array(worker.hit_column, dtype=bool)))
    per_type = {
        doc_type.value: acc.hit_rate
        for doc_type, acc in sorted(metrics.by_type.items(),
                                    key=lambda kv: kv[0].value)
        if acc.requests}

    total_requests = metrics.overall.requests
    hits = metrics.overall.hits
    report = ReplayReport(
        trace_name=getattr(trace, "name", "trace"),
        policy=config.policy, n_shards=config.n_shards,
        capacity_bytes=cache.capacity_bytes,
        requests=total_requests, hits=hits,
        misses=total_requests - hits,
        duration_seconds=duration,
        requests_per_second=(total_requests / duration
                             if duration > 0 else 0.0),
        per_shard=per_shard, per_type_hit_rate=per_type,
        latency_quantiles=histogram.quantiles(),
        latency_samples=histogram.count)
    emit("replay_finished", requests=report.requests,
         threads=len(workers), shards=config.n_shards,
         policy=config.policy, hit_rate=round(report.hit_rate, 6),
         duration_seconds=round(duration, 6),
         requests_per_second=round(report.requests_per_second, 1))
    return report


def validate_replay(trace, config: ReplayConfig,
                    report: Optional[ReplayReport] = None
                    ) -> ReplayValidation:
    """Check a replay against the simulator and the Che model.

    Per shard: re-simulate the shard's substream with
    :func:`run_cells` at ``warmup_fraction=0.0`` (replay measures
    every request) on the same capacity — the replayed hit rate must
    match **exactly** for deterministic single-thread-per-shard
    replays; and, for policies the model supports
    (:data:`MODEL_POLICIES`), predict the shard's hit rate analytically
    from its substream's catalog — agreement within the model's usual
    few-percent tolerance.  The trace is calibrated once and the
    catalog narrowed per shard, which is exact: a document's requests
    all land on one shard, and the catalog and the columns both number
    documents in first-seen order — checked, as the columns' ids
    appearing in increasing order with the catalog's request counts.
    """
    columns = columns_of(trace)
    if report is None:
        report = replay(columns, config)
    probe = ShardedCache(config.capacity_bytes,
                         n_shards=config.n_shards,
                         policy=config.policy, vnodes=config.vnodes)
    substreams = partition_trace(columns, probe)
    budgets = dict(zip(probe.shard_names,
                       split_budget(config.capacity_bytes,
                                    config.n_shards)))
    replayed = {s.shard: s for s in report.per_shard}
    try:
        model_policy = normalize_policy(config.policy)
    except Exception:
        model_policy = None
    catalog = None
    if model_policy in MODEL_POLICIES and len(columns):
        catalog = catalog_from_trace(columns)
        first = np.unique(columns.doc_ids, return_index=True)[1]
        if np.any(np.diff(first) < 0) or not np.array_equal(
                catalog.counts, np.bincount(columns.doc_ids)):
            raise ConfigurationError("doc ids do not index the catalog")

    shards = []
    for shard in probe.shard_names:
        substream = substreams[shard]
        if not len(substream):
            continue
        [sim] = run_cells(
            substream,
            [SimulationConfig(capacity_bytes=budgets[shard],
                              policy=config.policy,
                              warmup_fraction=0.0)],
            trace_name=f"{report.trace_name}/{shard}")
        model_rate = None
        if catalog is not None:
            narrowed = catalog.restrict(np.unique(substream.doc_ids),
                                        name=f"{shard}-substream")
            model_rate = predict(narrowed, budgets[shard],
                                 policy=model_policy).hit_rate
        shards.append(ShardValidation(
            shard=shard, requests=len(substream),
            replayed_hit_rate=replayed[shard].hit_rate,
            simulated_hit_rate=sim.hit_rate(),
            model_hit_rate=model_rate))
    return ReplayValidation(report=report, shards=shards)
