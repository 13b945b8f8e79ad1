"""Tests for the sibling cache mesh: a ``sibling_mesh`` topology under
leave-copy-everywhere on the network engine."""

import pytest

from repro.errors import ConfigurationError
from repro.network import NetworkConfig, run_network, sibling_mesh
from repro.types import DocumentType, Request, Trace


def req(url, size=100, ts=0.0):
    return Request(ts, url, size, size, DocumentType.HTML)


def run_mesh(trace, proxy_capacity, n_proxies=4, warmup_fraction=0.10,
             replicate_on_sibling_hit=True):
    return run_network(trace, NetworkConfig(
        topology=sibling_mesh(proxy_capacity, n_proxies=n_proxies),
        warmup_fraction=warmup_fraction,
        replicate_on_sibling_hit=replicate_on_sibling_hit))


def local_hit_rate(result):
    """Hits in the client's home proxy."""
    return result.edge_metrics().overall.hit_rate


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(topology=sibling_mesh(0)).validate()
        with pytest.raises(ConfigurationError):
            sibling_mesh(100, n_proxies=1)
        with pytest.raises(ConfigurationError):
            NetworkConfig(topology=sibling_mesh(100),
                          warmup_fraction=1.0).validate()

    def test_per_proxy_policies(self):
        from repro.core.registry import make_policy
        with pytest.raises(ConfigurationError):
            sibling_mesh(1000, n_proxies=2,
                         policies=[make_policy("lru")])


class TestSiblingServing:
    def test_sibling_hit_detected(self):
        """Proxy 0 caches on request 0; request 1 (proxy 1) misses
        locally but finds the document at its sibling."""
        trace = Trace([req("shared"), req("shared")])
        result = run_mesh(trace, 10_000, n_proxies=2,
                          warmup_fraction=0.0)
        assert local_hit_rate(result) == 0.0
        assert result.hit_rate == 0.5
        assert result.sibling_serves == 1
        assert result.sibling_hit_share == 1.0

    def test_replication_builds_local_hits(self):
        """With replication, the second round of requests hits
        locally at every proxy."""
        trace = Trace([req("shared") for _ in range(6)])
        result = run_mesh(trace, 10_000, n_proxies=2,
                          warmup_fraction=0.0,
                          replicate_on_sibling_hit=True)
        # Requests 0,1 miss locally (1 sibling hit); 2..5 hit locally.
        assert result.edge_metrics().overall.hits == 4
        assert result.hit_rate == pytest.approx(5 / 6)

    def test_no_replication_keeps_single_owner(self):
        trace = Trace([req("shared") for _ in range(6)])
        result = run_mesh(trace, 10_000, n_proxies=2,
                          warmup_fraction=0.0,
                          replicate_on_sibling_hit=False)
        # Proxy 0 owns the document; proxy 1 keeps sibling-hitting.
        assert result.sibling_serves == 3              # requests 1, 3, 5
        assert result.edge_metrics().overall.hits == 2  # requests 2, 4
        assert result.hit_rate == pytest.approx(5 / 6)

    def test_stale_sibling_copy_not_served(self):
        """A sibling copy at a different size is stale, not a hit."""
        trace = Trace([
            req("doc", size=1000),    # proxy 0 caches v1
            req("doc", size=1040),    # proxy 1: sibling copy stale
        ])
        result = run_mesh(trace, 10_000, n_proxies=2,
                          warmup_fraction=0.0)
        assert result.sibling_serves == 0


class TestMeshTradeoffs:
    def test_mesh_beats_isolated_proxies(self, tiny_dfn_trace):
        """Cooperation must help: the mesh hit rate dominates the
        local-only hit rate."""
        capacity = int(
            tiny_dfn_trace.metadata().total_size_bytes * 0.005)
        result = run_mesh(tiny_dfn_trace, capacity, n_proxies=4)
        assert result.hit_rate > local_hit_rate(result)
        assert 0.0 < result.sibling_hit_share < 1.0

    def test_replication_tradeoff(self, tiny_dfn_trace):
        """Replication lifts local hits; without it the pool holds
        more distinct documents (sibling share rises)."""
        capacity = int(
            tiny_dfn_trace.metadata().total_size_bytes * 0.005)
        replicated = run_mesh(tiny_dfn_trace, capacity, n_proxies=4,
                              replicate_on_sibling_hit=True)
        single_owner = run_mesh(tiny_dfn_trace, capacity, n_proxies=4,
                                replicate_on_sibling_hit=False)
        assert local_hit_rate(replicated) > local_hit_rate(single_owner)
        assert single_owner.sibling_hit_share > \
            replicated.sibling_hit_share

    def test_warmup_excluded(self):
        trace = Trace([req("a") for _ in range(10)])
        result = run_mesh(trace, 10_000, n_proxies=2,
                          warmup_fraction=0.5)
        assert result.warmup_requests == 5
        assert result.network.overall.requests == 5
