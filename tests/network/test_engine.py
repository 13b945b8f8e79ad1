"""Behavioural tests for the cache-network engine."""

import pytest

import repro.simulation.vectorized as vectorized
from repro.errors import ConfigurationError
from repro.network.engine import (
    NetworkConfig,
    NetworkSimulator,
    run_network,
    run_network_cells,
)
from repro.network.strategies import ProbCache
from repro.network.topology import (
    path,
    sibling_mesh,
    single,
    tree,
    two_level,
)
from repro.simulation.latency import LatencyModel
from repro.simulation.simulator import simulate
from repro.types import DocumentType, Request, Trace


def req(url, size=1000, doc_type=DocumentType.HTML, ts=0.0):
    return Request(ts, url, size, size, doc_type)


def run(topology, requests, **config_kwargs):
    config_kwargs.setdefault("warmup_fraction", 0.0)
    return NetworkSimulator(NetworkConfig(
        topology=topology, **config_kwargs)).run(Trace(list(requests)))


class TestConfig:
    def test_warmup_bounds(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(topology=single(100),
                          warmup_fraction=1.0).validate()

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(topology=single(100),
                          strategy="mcd").validate()


class TestSiblingRing:
    def test_replicate_copies_into_home(self):
        """proxy1 owns the document; proxy0's miss is sibling-served
        and (replicating) proxy0 keeps a copy: the next proxy0
        request hits locally."""
        trace = [req("a"), req("a"), req("a")]   # proxies 0,1,0
        result = run(sibling_mesh(10_000, n_proxies=2), trace,
                     replicate_on_sibling_hit=True)
        # Request 0: proxy0 miss (admits). 1: proxy1 sibling-served
        # by proxy0. 2: proxy0 local hit.
        assert result.sibling_serves == 1
        assert result.nodes["proxy0"].metrics.overall.hits == 1
        assert result.hit_rate == pytest.approx(2 / 3)

    def test_single_owner_drops_home_copy(self):
        trace = [req("a"), req("a"), req("a")]
        result = run(sibling_mesh(10_000, n_proxies=2), trace,
                     replicate_on_sibling_hit=False)
        # Request 1 (proxy1's) is sibling-served by proxy0; the
        # non-replicating home gives its walk-admitted copy back, so
        # proxy0 stays the sole owner and serves request 2 locally.
        assert result.sibling_serves == 1
        assert result.nodes["proxy1"].used_bytes == 0
        assert result.nodes["proxy1"].invalidations == 1
        assert result.nodes["proxy0"].used_bytes == 1000
        assert result.nodes["proxy0"].metrics.overall.hits == 1

    def test_network_view_counts_sibling_serves_as_hits(self):
        trace = [req("a"), req("a")]
        result = run(sibling_mesh(10_000, n_proxies=2), trace)
        assert result.network.overall.hits == 1
        assert result.edge_metrics().overall.hits == 0


class TestPlacement:
    def test_lcd_descends_one_level_per_request(self):
        """On a 3-deep path, a document reaches the edge only on its
        third request: origin→l2, l2→l1, l1→l0."""
        topo = path([10_000, 10_000, 10_000])
        result = run(topo, [req("a")] * 4, strategy="lcd")
        # Requests: miss everywhere (copy at l2); hit l2 (copy at
        # l1); hit l1 (copy at l0); hit l0.
        assert result.nodes["l2"].metrics.overall.hits == 1
        assert result.nodes["l1"].metrics.overall.hits == 1
        assert result.nodes["l0"].metrics.overall.hits == 1
        assert result.hit_rate == pytest.approx(3 / 4)

    def test_lce_floods_every_level(self):
        topo = path([10_000, 10_000, 10_000])
        result = run(topo, [req("a")] * 2)
        # One miss planted copies at every level; the second request
        # hits at the edge.
        assert result.nodes["l0"].metrics.overall.hits == 1
        for name in ("l0", "l1", "l2"):
            assert result.nodes[name].used_bytes == 1000

    def test_stale_copy_dropped_in_non_lce_walk(self):
        topo = path([10_000, 10_000])
        result = run(topo, [req("a", size=1000), req("a", size=2000)],
                     strategy="lcd")
        # The size change invalidates the stale copies mid-walk.
        assert result.nodes["l1"].invalidations == 1
        assert result.hit_rate == pytest.approx(0.0)

    def test_placement_sums_match_used_bytes(self, tiny_dfn_trace):
        topo = two_level(400_000, 1_600_000, n_children=3)
        result = NetworkSimulator(NetworkConfig(
            topology=topo)).run(tiny_dfn_trace)
        for node in result.nodes.values():
            assert sum(node.placement.values()) == node.used_bytes

    def test_placement_shares_sum_to_one_or_zero(self, tiny_dfn_trace):
        topo = tree([200_000, 400_000, 800_000])
        result = NetworkSimulator(NetworkConfig(
            topology=topo, strategy="lcd")).run(tiny_dfn_trace)
        for by_level in result.placement_shares().values():
            total = sum(by_level.values())
            assert total == pytest.approx(1.0) or total == 0.0


class TestLatency:
    def test_single_topology_matches_latency_model(self):
        """A ``single`` topology under the default links reproduces
        the single-cache LatencyModel's floats exactly."""
        trace = Trace([req("a"), req("a"), req("b", size=5000)])
        classic = simulate(trace, "lru", 10_000, warmup_fraction=0.0,
                           latency_model=LatencyModel())
        network = run(single(10_000), trace, measure_latency=True)
        assert network.latency.overall.count == 3
        assert network.latency.mean_latency() == \
            classic.latency.mean_latency()
        assert network.latency.speedup == classic.latency.speedup

    def test_sibling_serve_cheaper_than_origin(self):
        trace = [req("a"), req("a")]
        result = run(sibling_mesh(10_000, n_proxies=2), trace,
                     measure_latency=True)
        latencies = sorted((result.latency.overall.minimum,
                            result.latency.overall.maximum))
        assert latencies[0] < latencies[1]        # sibling < origin
        assert result.latency.speedup > 1.0

    def test_latency_off_by_default(self):
        assert run(single(10_000), [req("a")]).latency is None


class TestRunNetworkCells:
    def test_matches_individual_runs(self, tiny_dfn_trace):
        configs = [
            NetworkConfig(topology=two_level(300_000, 1_200_000)),
            NetworkConfig(topology=sibling_mesh(300_000),
                          strategy="lce"),
            NetworkConfig(topology=path([300_000] * 3),
                          strategy="lcd"),
        ]
        batched = run_network_cells(tiny_dfn_trace, configs)
        for config, result in zip(configs, batched):
            solo = run_network(tiny_dfn_trace, config)
            assert result.network.as_dict() == solo.network.as_dict()
            assert result.sibling_serves == solo.sibling_serves


class TestPolicySeed:
    def test_seed_accepted_for_unseedable_policies(self,
                                                   tiny_dfn_trace):
        """policy_seed must not break policies that take no seed."""
        config = NetworkConfig(topology=two_level(300_000, 1_200_000),
                               policy_seed=42)
        seeded = run_network(tiny_dfn_trace, config)
        plain = run_network(tiny_dfn_trace, NetworkConfig(
            topology=two_level(300_000, 1_200_000)))
        assert seeded.network.as_dict() == plain.network.as_dict()


class TestStrategyInstance:
    """A strategy instance in a config is walked as a copy, so its
    draws never carry from one run (or cell) into the next."""

    def config(self, strategy):
        return NetworkConfig(topology=tree([200_000, 400_000, 800_000]),
                             strategy=strategy)

    def test_same_config_twice(self, tiny_dfn_trace):
        config = self.config(ProbCache(seed=3))
        first = run_network(tiny_dfn_trace, config)
        assert run_network(tiny_dfn_trace, config).as_dict() == \
            first.as_dict()
        assert first.as_dict() == run_network(
            tiny_dfn_trace, self.config(ProbCache(seed=3))).as_dict()

    def test_cells_sharing_an_instance(self, tiny_dfn_trace):
        shared = ProbCache(seed=3)
        together = run_network_cells(
            tiny_dfn_trace, [self.config(shared), self.config(shared)])
        apart = run_network_cells(
            tiny_dfn_trace, [self.config(ProbCache(seed=3)),
                             self.config(ProbCache(seed=3))])
        assert [r.as_dict() for r in together] == \
            [r.as_dict() for r in apart]


class TestChunking:
    """The walk decodes ``DEFAULT_CHUNK_SIZE`` requests at a time; the
    edge round-robin, the warm-up boundary and the latency means run
    on across chunk ends."""

    @staticmethod
    def outcome(trace, config):
        result = run_network(trace, config)
        return result.as_dict(), [
            (node.latency.count, node.latency.mean)
            for node in result.nodes.values()]

    @pytest.mark.parametrize("measure_latency", [False, True])
    @pytest.mark.parametrize("topology, strategy", [
        (sibling_mesh(300_000, n_proxies=3), "lce"),   # 3 ∤ 7
        (sibling_mesh(300_000, n_proxies=3), "probcache"),
        (tree([100_000, 200_000, 400_000]), "lcd"),
        (tree([100_000, 200_000, 400_000]), "probcache"),
    ], ids=lambda value: getattr(value, "name", value))
    def test_chunk_size_does_not_show(self, topology, strategy,
                                      measure_latency, tiny_dfn_trace,
                                      monkeypatch):
        trace = Trace(tiny_dfn_trace.requests[:3000], name="head")
        config = NetworkConfig(topology=topology, strategy=strategy,
                               measure_latency=measure_latency)
        whole = self.outcome(trace, config)
        assert len(trace) < vectorized.DEFAULT_CHUNK_SIZE
        for chunk_size in (7, 1):
            monkeypatch.setattr(vectorized, "DEFAULT_CHUNK_SIZE",
                                chunk_size)
            assert self.outcome(trace, config) == whole, chunk_size
