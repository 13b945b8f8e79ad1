"""The trace-driven proxy-cache simulator (paper Section 4.1).

For each request the simulator

1. resolves the document's *effective full size* according to the
   configured :class:`SizeInterpretation` (see below);
2. feeds the reference to the cache (which admits, hits, or detects a
   stale copy);
3. after the warm-up phase, accounts the outcome into per-type hit and
   byte-hit metrics, counting modification misses as misses, exactly as
   the paper does;
4. optionally samples per-type occupancy for the Figure-1 analysis.

Size interpretations:

* ``TRUSTED`` — believe the request's ``size``/``transfer_size`` split
  (canonical synthetic traces carry ground truth).  A cached copy is
  stale iff the document's full size changed.
* ``PAPER_RULE`` — ignore ``size`` and reconstruct full sizes from the
  logged ``transfer_size`` sequence with the paper's 5 %-delta rule
  (< 5 % change = modification, ≥ 5 % = interrupted transfer).
* ``ANY_CHANGE`` — reconstruct treating *every* transfer-size change as
  a modification (Jin & Bestavros' treatment).  The paper attributes
  its one disagreement with [8] to this difference, which makes
  TRUSTED/PAPER_RULE vs ANY_CHANGE a designed-in ablation.

``CacheSimulator`` is the independent **per-request reference**: one
loop, request by request, that resolves the size (:func:`make_resolver`),
takes one reference through a single
:class:`~repro.simulation.engine.CacheCell`
(:meth:`~repro.simulation.engine.CacheCell.step`, the TTL hook the
plain loop shares) and accounts it on the spot — the only caller of
:meth:`~repro.simulation.metrics.TypeMetrics.record` — with none of the
shared pass's machinery: no columns, no hit-column tallies or folds, no
fast paths.  Every equivalence test and the perf ledger's ``verify()``
compare :func:`repro.simulation.engine.run_cells` against it; sweeps
that want N cells per trace pass use ``run_cells`` directly.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.core.policy import ReplacementPolicy
from repro.observability.logs import get_logger
from repro.observability.metrics import get_registry
from repro.observability.profiling import PhaseTimings, phase_timer
from repro.observability.trace import span as _span
from repro.simulation.engine import (
    CacheCell,
    SimulationConfig,
    SizeInterpretation,
)
from repro.simulation.results import SimulationResult
from repro.trace.modification import ModificationDetector, ModificationPolicy
from repro.types import Request, Trace

__all__ = [
    "SizeInterpretation",
    "SimulationConfig",
    "CacheSimulator",
    "simulate",
]

_logger = get_logger("simulation")


def make_resolver(config: SimulationConfig):
    """``resolve(request)`` → the reference tuple ``(url, size,
    doc_type, transfer, raw_size, timestamp)`` the request loop
    consumes, with ``size`` read under the config's size
    interpretation."""
    interp = config.size_interpretation
    if interp is SizeInterpretation.TRUSTED:
        def resolve(r: Request) -> tuple:
            size = r.size
            t = r.transfer_size
            return (r.url, size, r.doc_type,
                    t if t < size else size, size, r.timestamp)
        return resolve
    observe = ModificationDetector(
        tolerance=config.modification_tolerance,
        policy=(ModificationPolicy.PAPER
                if interp is SizeInterpretation.PAPER_RULE
                else ModificationPolicy.ANY_CHANGE)).observe

    def resolve(r: Request) -> tuple:
        raw = r.size
        t = r.transfer_size
        return (r.url, observe(r.url, t).document_size, r.doc_type,
                t if t < raw else raw, raw, r.timestamp)
    return resolve


class CacheSimulator:
    """Runs one policy over one trace with the paper's methodology."""

    def __init__(self, config: SimulationConfig, cache=None):
        """``cache`` overrides the config's capacity/policy pair with a
        prebuilt cache-compatible object (e.g. a
        :class:`~repro.core.partitioned.PartitionedCache`)."""
        self._cell = CacheCell(config, cache=cache)
        self.config = config
        self._resolve = make_resolver(config)
        #: Wall-clock seconds per phase of the most recent run
        #: (stream / aggregate), for profiling long runs.
        self.phase_timings = PhaseTimings()

    # The cell owns all mutable simulation state; expose the historical
    # attribute surface as read-only views of it.

    @property
    def cache(self):
        return self._cell.cache

    @property
    def policy(self):
        return self._cell.policy

    @property
    def metrics(self):
        return self._cell.metrics

    @property
    def occupancy(self):
        return self._cell.occupancy

    @property
    def latency(self):
        return self._cell.latency

    @property
    def _freshness(self):
        return self._cell._freshness

    def run(self, trace: Union[Trace, Sequence[Request]],
            trace_name: Optional[str] = None) -> SimulationResult:
        """Simulate the full trace and return the result."""
        requests = trace.requests if isinstance(trace, Trace) else trace
        if not hasattr(requests, "__len__"):
            requests = list(requests)
        return self.run_stream(
            requests, int(len(requests) * self.config.warmup_fraction),
            trace_name or getattr(trace, "name", "trace"))

    def run_stream(self, requests: Iterable[Request],
                   warmup_requests: int = 0,
                   trace_name: str = "stream") -> SimulationResult:
        """Simulate an unbounded stream with an absolute warm-up count.

        Every request takes the cell's
        :meth:`~repro.simulation.engine.CacheCell.step` and is accounted
        here, so cost, latency, TTL and occupancy accounting match
        :meth:`run`.
        """
        timings = self.phase_timings = PhaseTimings()
        cell = self._cell
        cell.begin_run(warmup_requests)
        resolve = self._resolve
        step = cell.step
        metrics = cell.metrics
        report = self.config.report_cost_model
        latency = cell.latency
        occupancy = cell.occupancy
        total = 0
        with _span("stream", policy=str(self.config.policy)), \
                phase_timer("stream", timings):
            for request in requests:
                total += 1
                url, size, doc_type, transfer, raw, stamp = resolve(request)
                hit = step(url, size, doc_type, stamp)
                if total > warmup_requests:
                    cost = report.cost(raw) if report is not None else 0.0
                    metrics.record(doc_type, hit, transfer, cost)
                    if latency is not None:
                        latency.record(doc_type, hit, transfer)
                        latency.record_baseline(transfer)
                if occupancy is not None:
                    occupancy.maybe_sample(cell.cache, total)
        with phase_timer("aggregate", timings):
            result = cell.finalize(trace_name, total,
                                   warmup=min(warmup_requests, total))
        self._publish_telemetry(result, timings)
        return result

    def _publish_telemetry(self, result: SimulationResult,
                           timings: PhaseTimings) -> None:
        """Batch the run's aggregates into the metrics registry.

        One update per run — never one per request — so the hot loop
        carries no metric calls and the disabled-by-default registry
        costs nothing measurable.
        """
        registry = get_registry()
        if registry.enabled:
            labels = {"policy": result.policy}
            registry.counter("simulator_runs_total", **labels).inc()
            registry.counter("simulator_requests_total", **labels).inc(
                result.total_requests)
            registry.counter("simulator_hits_total", **labels).inc(
                result.metrics.overall.hits)
            registry.counter("simulator_hit_bytes_total", **labels).inc(
                result.metrics.overall.hit_bytes)
            registry.counter("simulator_evictions_total", **labels).inc(
                result.evictions)
            for phase, seconds in timings.as_dict().items():
                registry.histogram("simulator_phase_seconds",
                                   phase=phase).observe(seconds)
        measured = timings.get("stream")
        _logger.debug(
            "simulated %s: %d requests in %.3fs", result.policy,
            result.total_requests, timings.total,
            extra={"policy": result.policy,
                   "capacity_bytes": result.capacity_bytes,
                   "requests": result.total_requests,
                   "hit_rate": round(result.hit_rate(), 6),
                   "phase_seconds": {k: round(v, 6) for k, v
                                     in timings.as_dict().items()},
                   "requests_per_second": round(
                       result.total_requests / measured, 1)
                   if measured else None})


def simulate(trace: Union[Trace, Sequence[Request]],
             policy: Union[str, ReplacementPolicy],
             capacity_bytes: int,
             **config_kwargs) -> SimulationResult:
    """One-call simulation: trace + policy + capacity → result."""
    config = SimulationConfig(capacity_bytes=capacity_bytes, policy=policy,
                              **config_kwargs)
    return CacheSimulator(config).run(trace)
