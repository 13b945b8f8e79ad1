"""Tests for the two-level hierarchy: a ``two_level`` topology under
leave-copy-everywhere on the network engine."""

import pytest

from repro.errors import ConfigurationError
from repro.network import (NetworkConfig, NetworkSimulator, run_network,
                           two_level)
from repro.types import DocumentType, Request, Trace


def req(url, size=100, doc_type=DocumentType.HTML, ts=0.0):
    return Request(ts, url, size, size, doc_type)


def run_hierarchy(trace, child_capacity, parent_capacity,
                  warmup_fraction=0.10, **shape):
    return run_network(trace, NetworkConfig(
        topology=two_level(child_capacity, parent_capacity, **shape),
        warmup_fraction=warmup_fraction))


def child_hit_rate(result):
    return result.edge_metrics().overall.hit_rate


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(topology=two_level(0, 100)).validate()
        with pytest.raises(ConfigurationError):
            NetworkConfig(topology=two_level(100, 0)).validate()
        with pytest.raises(ConfigurationError):
            two_level(100, 100, n_children=0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(topology=two_level(100, 100),
                          warmup_fraction=1.0).validate()


class TestAccounting:
    def test_child_hit_never_reaches_parent(self):
        """Single child, repeated document: only the first request (a
        child miss) reaches the parent."""
        trace = Trace([req("a"), req("a"), req("a")])
        result = run_hierarchy(trace, 10_000, 10_000,
                               n_children=1, warmup_fraction=0.0)
        parent = result.nodes["parent"].metrics
        assert result.edge_metrics().overall.requests == 3
        assert parent.overall.requests == 1          # only the miss
        assert child_hit_rate(result) == pytest.approx(2 / 3)
        assert result.hit_rate == pytest.approx(2 / 3)

    def test_parent_serves_cross_child_sharing(self):
        """Two children alternate requests to the same document: each
        child's first touch misses locally but the second child's miss
        hits the parent (warmed by the first child's miss)."""
        trace = Trace([req("shared"), req("shared"),
                       req("shared"), req("shared")])
        result = run_hierarchy(trace, 10_000, 10_000,
                               n_children=2, warmup_fraction=0.0)
        # Round-robin: child0 gets requests 0,2; child1 gets 1,3.
        # Request 0: child0 miss, parent miss. Request 1: child1 miss,
        # parent HIT. Requests 2,3: child hits.
        assert child_hit_rate(result) == pytest.approx(0.5)
        assert result.nodes["parent"].metrics.overall.hits == 1
        assert result.hit_rate == pytest.approx(0.75)

    def test_hierarchy_rate_bounds(self):
        trace = Trace([req(f"u{i % 7}") for i in range(100)])
        result = run_hierarchy(trace, 300, 2000, n_children=2,
                               warmup_fraction=0.0)
        assert result.hit_rate >= child_hit_rate(result)
        assert 0.0 <= result.origin_byte_rate <= 1.0

    def test_warmup_excluded(self):
        trace = Trace([req("a") for _ in range(10)])
        result = run_hierarchy(trace, 10_000, 10_000,
                               n_children=1, warmup_fraction=0.5)
        assert result.warmup_requests == 5
        assert result.edge_metrics().overall.requests == 5
        assert child_hit_rate(result) == 1.0


class TestFilteringEffect:
    def test_parent_sees_weaker_locality(self, tiny_dfn_trace):
        """The classic hierarchy observation: a parent behind child
        caches posts a much lower hit rate than the same cache would
        standalone, because the children strip the locality."""
        from repro.simulation.simulator import simulate

        total = tiny_dfn_trace.metadata().total_size_bytes
        parent_capacity = int(total * 0.02)
        child_capacity = int(total * 0.005)

        hierarchy = run_hierarchy(
            tiny_dfn_trace, child_capacity, parent_capacity,
            n_children=4)
        standalone = simulate(tiny_dfn_trace, "lru", parent_capacity)

        # Hit rate over the requests that reached the parent.
        parent = hierarchy.nodes["parent"].metrics.overall
        assert parent.hit_rate < standalone.hit_rate()
        # But the hierarchy as a whole beats any single child.
        assert hierarchy.hit_rate > child_hit_rate(hierarchy)

    def test_policy_choice_per_level(self, tiny_dfn_trace):
        total = tiny_dfn_trace.metadata().total_size_bytes
        result = run_hierarchy(
            tiny_dfn_trace, int(total * 0.005), int(total * 0.02),
            child_policy="gd*(1)", parent_policy="gds(p)",
            n_children=2)
        assert 0.0 <= result.hit_rate <= 1.0

    def test_modified_documents_handled_at_both_levels(self):
        trace = Trace([
            req("a", size=1000),
            req("a", size=1020),   # modified
            req("a", size=1020),
        ])
        result = run_hierarchy(trace, 10_000, 10_000,
                               n_children=1, warmup_fraction=0.0)
        # Request 1 misses (first); request 2 misses at child AND the
        # parent invalidates its stale copy; request 3 hits at child.
        assert result.edge_metrics().overall.hits == 1
        assert result.nodes["parent"].invalidations == 1
        sim = NetworkSimulator(NetworkConfig(
            topology=two_level(10_000, 10_000, n_children=1)))
        assert sim  # constructible with config object too
