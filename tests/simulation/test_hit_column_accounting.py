"""Every cell of a shared pass is counted from its hit column.

:func:`repro.simulation.engine.run_cells` has one request step: each
cell's kernel (the LRU ladder, the LRU/FIFO queue, the hinted Greedy-Dual
loop or the plain loop) yields a hit column, and
:meth:`~repro.simulation.engine.CacheCell.account` counts it — integers
by :class:`~repro.simulation.vectorized.Tally`, cost and latency as
left folds over the measured rows, occupancy by cutting chunks at the
sampling interval.  :class:`~repro.simulation.simulator.CacheSimulator`
accounts request by request, so every check here is a differential one:
the extras on their kernels against the independent reference.
"""

import functools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import ConstantCost, PacketCost
from repro.observability.events import set_event_sink
from repro.observability.metrics import (MetricsRegistry, get_registry,
                                         set_registry)
from repro.observability.trace import Tracer, set_tracer
from repro.simulation.engine import (
    DEFAULT_CHUNK_SIZE,
    CacheCell,
    fast_path,
    run_cells,
)
from repro.simulation.freshness import TTLModel
from repro.simulation.latency import LatencyModel
from repro.simulation.simulator import SimulationConfig, SizeInterpretation
from repro.types import DocumentType, Request, Trace
from tests.simulation.test_engine import (  # noqa: F401 (fixtures)
    DOC_TYPES,
    EventRecorder,
    _null_sink_after,
    assert_cells_match_classic,
    classic,
    feed,
    mixed_trace,
    observed,
)

EXTRAS = {"report_cost_model": PacketCost(),
          "latency_model": LatencyModel()}


def latency_state(latency):
    """Every field of every latency accumulator, baseline included."""
    if latency is None:
        return None
    stats = [latency.overall, latency.baseline]
    stats += [latency.by_type[t] for t in DOC_TYPES]
    return [(s.count, s.total, s._mean, s._m2, s.minimum, s.maximum)
            for s in stats]


#: The cell counts a pass reports per kernel, each as a
#: ``pass_finished`` field, a pass-span attribute and an engine counter.
KERNEL_COUNTS = ("lru_ladder_cells", "queue_cells", "heap_cells")


def pass_counts(source, trace, configs):
    """The shared pass checked against the reference, and its
    ``pass_finished`` event; the pass span and the engine's counters
    report the same count per kernel."""
    recorder = EventRecorder()
    previous = set_event_sink(recorder)
    tracer = set_tracer(Tracer())
    registry = set_registry(MetricsRegistry())
    try:
        assert_cells_match_classic(source, trace, configs)
        counters = get_registry().as_dict()
    finally:
        set_event_sink(previous)
        set_tracer(tracer)
        set_registry(registry)
    (finished,) = recorder.named("pass_finished")
    (pass_span,) = [event for event in recorder.named("span")
                    if event["name"] == "pass"]
    for count in KERNEL_COUNTS:
        assert pass_span["attributes"][count] == finished[count], count
        assert counters.get(f"engine_{count}_total", 0) == \
            finished[count], count
    return finished


class TestOccupancyAcrossChunks:
    def test_samples_equal_the_reference(self, feed):
        """Intervals that divide, straddle and equal the chunk size,
        over a trace spanning three chunks."""
        trace = mixed_trace(n=2 * DEFAULT_CHUNK_SIZE + 900)
        configs = [SimulationConfig(capacity_bytes=9_000, policy=policy,
                                    occupancy_interval=interval)
                   for policy in ("gds(1)", "gd*(p)", "lru")
                   for interval in (1, 7, 1000, DEFAULT_CHUNK_SIZE)]
        expected = [classic(trace, config) for config in configs]
        for source in ("requests", "rcol"):
            results = run_cells(feed(source, trace), configs,
                                trace_name=trace.name)
            for config, result, reference in zip(configs, results,
                                                  expected):
                assert observed(result) == observed(reference)
                samples = result.occupancy.samples
                assert samples == reference.occupancy.samples
                assert len(samples) == \
                    len(trace) // config.occupancy_interval
                assert samples[0].request_index == \
                    config.occupancy_interval


class TestExtrasRideKernels:
    def test_cost_and_latency_lru_cells_take_the_ladder(self, feed):
        configs = [SimulationConfig(capacity_bytes=c, policy="lru",
                                    warmup_fraction=0.2, **EXTRAS)
                   for c in (9_000, 60_000)]
        configs.append(SimulationConfig(capacity_bytes=20_000,
                                        policy="lru",
                                        report_cost_model=ConstantCost()))
        trace = mixed_trace()
        for source in ("requests", "rcol"):
            finished = pass_counts(feed(source, trace), trace, configs)
            assert finished["lru_ladder_cells"] == len(configs)

    @pytest.mark.parametrize("policy", ["fifo", "lru"])
    def test_cost_and_latency_fifo_cells_take_the_queue(
            self, policy, feed, tiny_dfn_trace):
        """The raw DFN workload changes document sizes, so no LRU cell
        takes the ladder: under every size interpretation, and below the
        largest document (bypasses), the queue replays LRU and FIFO."""
        trace = tiny_dfn_trace
        sizes = {request.url: request.size for request in trace}
        total, largest = sum(sizes.values()), max(sizes.values())
        configs = [SimulationConfig(capacity_bytes=c, policy=policy,
                                    warmup_fraction=0.2,
                                    size_interpretation=interpretation,
                                    **EXTRAS)
                   for interpretation in SizeInterpretation
                   for c in (total // 50, largest - 1, total // 5)]
        configs.append(SimulationConfig(capacity_bytes=total // 10,
                                        policy=policy,
                                        latency_model=LatencyModel()))
        for source in ("requests", "rcol"):
            finished = pass_counts(feed(source, trace), trace, configs)
            assert finished["lru_ladder_cells"] == 0
            assert finished["queue_cells"] == len(configs)

    @pytest.mark.parametrize("interpretation", list(SizeInterpretation))
    def test_cost_and_latency_gd_cells_take_the_heap(
            self, interpretation, feed, tiny_dfn_trace):
        """Every heap-kernel member, with every extra, under one size
        interpretation of the raw DFN workload (size changes) and
        below the largest document (bypasses)."""
        trace = tiny_dfn_trace
        sizes = {request.url: request.size for request in trace}
        total, largest = sum(sizes.values()), max(sizes.values())
        configs = [SimulationConfig(capacity_bytes=c, policy=policy,
                                    warmup_fraction=0.2,
                                    size_interpretation=interpretation,
                                    **EXTRAS)
                   for policy in ("gds(1)", "gdsf(p)", "gd*(1)", "lfu-da")
                   for c in (total // 50, largest - 1)]
        configs.append(SimulationConfig(capacity_bytes=total // 10,
                                        policy="lru", **EXTRAS))
        finished = pass_counts(feed("rcol", trace), trace, configs)
        assert finished["heap_cells"] == len(configs) - 1
        assert finished["queue_cells"] == 1

    def test_fast_path_by_extra(self):
        def path(policy, **extras):
            return fast_path(CacheCell(SimulationConfig(
                capacity_bytes=9_000, policy=policy, **extras)))

        occupancy = {"occupancy_interval": 10}
        for policy in ("gds(1)", "gdsf(p)", "gd*(1)", "lfu-da"):
            assert path(policy, **EXTRAS) == "heap", policy
        assert path("gd*t(1)", **EXTRAS) == "hinted"
        assert path("lfu-da", **occupancy) is None
        assert path("gds(1)", **occupancy) == "hinted"
        assert path("gd*(p)", **occupancy, **EXTRAS) == "hinted"
        assert path("lru", **occupancy) is None
        assert path("fifo", **occupancy) is None
        assert path("lru", **EXTRAS) == "queue"
        assert path("fifo", **EXTRAS) == "queue"
        assert path("lru-threshold", **EXTRAS) is None
        ttl = {"ttl_model": TTLModel(default_ttl=60.0)}
        for policy in ("lru", "fifo", "gds(1)", "gd*(p)", "lfu-da"):
            assert path(policy, **ttl) is None, policy


class TestFoldOrder:
    def test_constant_cost_adds_left_to_right(self):
        """Twelve additions of 0.1: the reference's running sum, which a
        compensated sum (``math.fsum``, or ``sum()`` from Python 3.12)
        would round differently."""
        trace = Trace([Request(float(i), f"u{i % 5}", 300, 300,
                               DocumentType.HTML) for i in range(12)],
                      name="fold")
        costs = [0.1] * len(trace)
        folded = functools.reduce(operator.add, costs, 0.0)
        assert folded != math.fsum(costs)
        configs = [SimulationConfig(capacity_bytes=1_000, policy=policy,
                                    warmup_fraction=0.0,
                                    report_cost_model=ConstantCost(0.1))
                   for policy in ("lru", "fifo", "gds(1)", "lfu-da")]
        results = assert_cells_match_classic(trace, trace, configs)
        for result in results:
            for acc in (result.metrics.overall,
                        result.metrics.by_type[DocumentType.HTML]):
                assert acc.requested_cost == folded
            assert result.metrics.overall.saved_cost == \
                functools.reduce(operator.add,
                                 [0.1] * result.metrics.overall.hits, 0.0)


class TestZeroPreviousSize:
    """A URL logged with 0 bytes, then 100: under the paper rule the
    zero previous size is an infinite delta, so the growth is a
    modification that invalidates the empty copy."""

    TRACE = Trace([Request(0.0, "u", 0, 0, DocumentType.IMAGE),
                   Request(1.0, "u", 100, 100, DocumentType.IMAGE),
                   Request(2.0, "u", 100, 100, DocumentType.IMAGE)],
                  name="zero-then-grown")

    def test_run_cells_equals_the_reference(self, feed):
        configs = [SimulationConfig(
            capacity_bytes=1_000, policy=policy, warmup_fraction=0.0,
            size_interpretation=SizeInterpretation.PAPER_RULE)
            for policy in ("lru", "fifo", "gds(1)", "lfu-da")]
        for source in ("requests", "rcol"):
            results = assert_cells_match_classic(
                feed(source, self.TRACE), self.TRACE, configs)
            for result in results:
                assert result.metrics.overall.hits == 1
                assert result.invalidations == 1


REQUESTS = st.lists(
    st.tuples(st.integers(0, 7),                              # url
              st.sampled_from([0, 1, 90, 100, 104, 2_500, 9_000]),
              st.sampled_from([0.0, 0.3, 1.0]),               # transfer
              st.sampled_from(DOC_TYPES),
              st.integers(0, 90)),                            # gap
    max_size=60)


@settings(max_examples=60, deadline=None)
@given(REQUESTS,
       st.sampled_from(["lru", "fifo", "gds(1)", "gd*(p)", "gdsf(p)",
                        "lfu-da"]),
       st.sampled_from([500, 3_000, 12_000]),
       st.sampled_from(list(SizeInterpretation)),
       st.sampled_from([0.0, 0.1, 0.5]),
       st.sampled_from([1, 3, 7]))
def test_every_cell_kind_equals_the_reference(rows, policy, capacity,
                                              interp, warmup, interval):
    """Zero sizes, zero transfers and documents larger than the cache,
    through every kernel and every extra in one pass."""
    requests, now = [], 0.0
    for url, size, share, doc_type, gap in rows:
        now += gap
        requests.append(Request(now, f"u{url}", size, int(size * share),
                                doc_type))
    trace = Trace(requests, name="drawn")
    kinds = [{}, {"report_cost_model": PacketCost()},
             {"latency_model": LatencyModel()},
             {"occupancy_interval": interval},
             {"ttl_model": TTLModel(default_ttl=120.0)},
             {"occupancy_interval": interval, **EXTRAS}]
    configs = [SimulationConfig(capacity_bytes=capacity, policy=policy,
                                warmup_fraction=warmup,
                                size_interpretation=interp, **extras)
               for extras in kinds]
    results = run_cells(trace, configs, trace_name=trace.name)
    for config, result in zip(configs, results):
        reference = classic(trace, config)
        assert observed(result) == observed(reference)
        assert latency_state(result.latency) == \
            latency_state(reference.latency)
        assert (result.evictions, result.invalidations, result.bypasses) \
            == (reference.evictions, reference.invalidations,
                reference.bypasses)
