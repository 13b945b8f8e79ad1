"""Tests for the trace-driven simulator (paper Section 4.1 semantics)."""

import pytest

from repro.core.registry import make_policy
from repro.errors import ConfigurationError
from repro.simulation.simulator import (
    CacheSimulator,
    SimulationConfig,
    SizeInterpretation,
    simulate,
)
from repro.types import DocumentType, Request, Trace


def req(url, size=100, transfer=None, doc_type=DocumentType.HTML, ts=0.0):
    return Request(ts, url, size, transfer if transfer is not None
                   else size, doc_type)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(capacity_bytes=0).validate()
        with pytest.raises(ConfigurationError):
            SimulationConfig(capacity_bytes=10,
                             warmup_fraction=1.0).validate()
        with pytest.raises(ConfigurationError):
            SimulationConfig(capacity_bytes=10,
                             occupancy_interval=-1).validate()

    def test_policy_by_name_or_instance(self):
        config = SimulationConfig(capacity_bytes=1000, policy="lru")
        assert CacheSimulator(config).policy.name == "lru"
        config2 = SimulationConfig(capacity_bytes=1000,
                                   policy=make_policy("gds(p)"))
        assert CacheSimulator(config2).policy.name == "gds(p)"


class TestBasicAccounting:
    def test_simple_hit_rate(self):
        trace = Trace([req("a"), req("a"), req("a"), req("b")])
        result = simulate(trace, "lru", 10_000, warmup_fraction=0.0)
        assert result.counted_requests == 4
        assert result.hit_rate() == pytest.approx(0.5)  # 2 hits on a

    def test_byte_hit_rate_uses_transfer_sizes(self):
        trace = Trace([req("a", size=1000),
                       req("a", size=1000, transfer=200)])  # interrupted
        result = simulate(trace, "lru", 10_000, warmup_fraction=0.0)
        # Second request hits, serving 200 of 1200 requested bytes.
        assert result.hit_rate() == 0.5
        assert result.byte_hit_rate() == pytest.approx(200 / 1200)

    def test_per_type_breakdown(self):
        trace = Trace([
            req("i", doc_type=DocumentType.IMAGE),
            req("i", doc_type=DocumentType.IMAGE),
            req("m", doc_type=DocumentType.MULTIMEDIA),
        ])
        result = simulate(trace, "lru", 10_000, warmup_fraction=0.0)
        assert result.hit_rate(DocumentType.IMAGE) == 0.5
        assert result.hit_rate(DocumentType.MULTIMEDIA) == 0.0

    def test_modification_counts_as_miss(self):
        """Paper: 'we assume that the document has been modified and
        count the request as a miss.'"""
        trace = Trace([req("a", size=1000), req("a", size=1020)])
        result = simulate(trace, "lru", 10_000, warmup_fraction=0.0)
        assert result.hit_rate() == 0.0
        assert result.invalidations == 1


class TestWarmup:
    def test_warmup_excluded_from_metrics(self):
        """First 10 % fill the cache uncounted."""
        requests = [req(f"u{i}") for i in range(10)] + \
                   [req("u0") for _ in range(10)]
        trace = Trace(requests)
        result = simulate(trace, "lru", 100_000, warmup_fraction=0.5)
        assert result.warmup_requests == 10
        assert result.counted_requests == 10
        assert result.hit_rate() == 1.0  # all counted requests hit

    def test_zero_warmup(self):
        trace = Trace([req("a"), req("a")])
        result = simulate(trace, "lru", 10_000, warmup_fraction=0.0)
        assert result.counted_requests == 2

    def test_warmup_still_fills_cache(self):
        requests = [req("a")] + [req("a")]
        result = simulate(Trace(requests), "lru", 10_000,
                          warmup_fraction=0.5)
        # The single counted request hits thanks to the warm-up fill.
        assert result.hit_rate() == 1.0


class TestSizeInterpretations:
    def make_trace(self):
        """Full fetch, then interrupted fetch, then full fetch."""
        return Trace([
            req("a", size=1000, transfer=1000),
            req("a", size=1000, transfer=300),   # interruption
            req("a", size=1000, transfer=1000),
        ])

    def test_trusted_keeps_cached_copy(self):
        result = simulate(self.make_trace(), "lru", 10_000,
                          warmup_fraction=0.0)
        assert result.hit_rate() == pytest.approx(2 / 3)
        assert result.invalidations == 0

    def test_paper_rule_agrees_with_trusted_here(self):
        result = simulate(self.make_trace(), "lru", 10_000,
                          warmup_fraction=0.0,
                          size_interpretation=SizeInterpretation.PAPER_RULE)
        assert result.hit_rate() == pytest.approx(2 / 3)

    def test_any_change_invalidates_on_interruption(self):
        """Jin & Bestavros' rule: the 300-byte transfer looks like a
        modification, so the third request misses too (size changed
        back)."""
        result = simulate(self.make_trace(), "lru", 10_000,
                          warmup_fraction=0.0,
                          size_interpretation=SizeInterpretation.ANY_CHANGE)
        assert result.hit_rate() == 0.0
        assert result.invalidations == 2

    def test_paper_rule_detects_true_modification(self):
        trace = Trace([
            req("a", size=1000, transfer=1000),
            req("a", size=1020, transfer=1020),   # +2 %: modification
        ])
        result = simulate(trace, "lru", 10_000, warmup_fraction=0.0,
                          size_interpretation=SizeInterpretation.PAPER_RULE)
        assert result.hit_rate() == 0.0


class TestResultFields:
    def test_final_beta_only_for_gdstar(self):
        trace = Trace([req("a"), req("a")])
        lru_result = simulate(trace, "lru", 10_000)
        gdstar_result = simulate(trace, "gd*(1)", 10_000)
        assert lru_result.final_beta is None
        assert gdstar_result.final_beta is not None

    def test_trace_name_recorded(self):
        trace = Trace([req("a")], name="mytrace")
        assert simulate(trace, "lru", 1000).trace_name == "mytrace"

    def test_bypasses_counted(self):
        trace = Trace([req("huge", size=50_000)])
        result = simulate(trace, "lru", 1000, warmup_fraction=0.0)
        assert result.bypasses == 1
        assert result.hit_rate() == 0.0


class TestRunStream:
    def test_stream_with_absolute_warmup(self):
        simulator = CacheSimulator(
            SimulationConfig(capacity_bytes=10_000, policy="lru"))
        requests = iter([req("a"), req("a"), req("a")])
        result = simulator.run_stream(requests, warmup_requests=1)
        assert result.total_requests == 3
        assert result.counted_requests == 2
        assert result.hit_rate() == 1.0

    def test_stream_accounting_matches_run(self):
        """Cost, latency, TTL and occupancy accounting are the cell's
        one request step, so a stream and a materialized run agree."""
        from repro.core.cost import PacketCost
        from repro.simulation.freshness import TTLModel
        from repro.simulation.latency import LatencyModel

        requests = [req(f"u{u}", size=300 + 40 * (u % 5),
                        doc_type=list(DocumentType)[u % 5], ts=float(i))
                    for i in range(400) for u in [(i * 7) % 23]]

        def simulator():
            return CacheSimulator(SimulationConfig(
                capacity_bytes=20_000, policy="gds(1)",
                warmup_fraction=0.25, occupancy_interval=50,
                report_cost_model=PacketCost(),
                latency_model=LatencyModel(),
                ttl_model=TTLModel(default_ttl=30.0)))

        whole = simulator().run(requests, trace_name="t")
        streamed = simulator().run_stream(
            iter(requests), warmup_requests=100, trace_name="t")
        assert streamed.as_dict() == whole.as_dict()
        assert whole.latency.overall.count == 300
        assert streamed.latency.overall.count == 300
        assert streamed.latency.total_latency() == \
            whole.latency.total_latency()
        assert whole.metrics.overall.requested_cost > 0
        for side in ("requested_cost", "saved_cost"):
            assert getattr(streamed.metrics.overall, side) == \
                getattr(whole.metrics.overall, side)
        assert streamed.occupancy.samples == whole.occupancy.samples
        assert streamed.ttl_expiries == whole.ttl_expiries > 0

    def test_empty_stream(self):
        simulator = CacheSimulator(
            SimulationConfig(capacity_bytes=10_000, policy="lru"))
        result = simulator.run_stream(iter([]))
        assert result.total_requests == 0
        assert result.hit_rate() == 0.0


class TestOccupancyIntegration:
    def test_occupancy_collected_when_enabled(self):
        trace = Trace([req(f"u{i}") for i in range(30)])
        result = simulate(trace, "lru", 10_000, occupancy_interval=10)
        assert result.occupancy is not None
        assert len(result.occupancy.samples) == 3

    def test_occupancy_disabled_by_default(self):
        trace = Trace([req("a")])
        assert simulate(trace, "lru", 1000).occupancy is None
