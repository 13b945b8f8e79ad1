"""The walk's column accounting against a per-request accountant.

``NetworkSimulator._drive`` notes one small int per request (the depth
that served, −1 origin, −2 sibling) and ``_account`` turns that column
into every per-node and network tally as masked sums.  The reference
below is the accounting the walk used to do inline — a ``reached``
prefix of the path and one ``TypeMetrics.record`` per reached node —
run over random small meshes, trees and paths.  The end-to-end service
times the walk accumulates per request (their running means depend on
order) are held to the same accountant: ``measured_transfer(request)``
through ``path_latency`` over the topology's links.

The LCE cascade of LRU and FIFO nodes yields the same kind of column
and is counted by the same ``account``; the differential at the end
holds it equal to the walk over the same random requests.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.engine import (NetworkConfig, NetworkSimulator,
                                  run_network)
from repro.network.fastpath import fastpath_eligible
from repro.network.topology import path, sibling_mesh, single, tree, two_level
from repro.simulation.latency import LatencyMetrics, path_latency
from repro.simulation.metrics import TypeMetrics, measured_transfer
from repro.structures.streaming import StreamingStats
from repro.types import DOCUMENT_TYPES, Request, Trace


def account_per_request(topology, requests, served, warmup):
    nodes = {name: TypeMetrics() for name in topology.nodes}
    network = TypeMetrics()
    sibling_serves = 0
    latency = LatencyMetrics()
    edge_latency = {edge: StreamingStats() for edge in topology.edges}
    for index, (request, depth) in enumerate(zip(requests, served)):
        if index < warmup:
            continue
        edge = topology.edges[index % len(topology.edges)]
        route = topology.path_to_origin(edge)
        reached = route if depth < 0 else route[:depth + 1]
        transfer = measured_transfer(request)
        for k, name in enumerate(reached):
            nodes[name].record(request.doc_type, k == depth, transfer)
        network.record(request.doc_type, depth != -1, transfer)
        sibling_serves += depth == -2
        # The client link, then one uplink per cache the fetch climbed
        # past; a sibling answers over the peer link instead.
        to_origin = [topology.client_link] + [
            topology.nodes[name].uplink for name in route]
        if depth == -2:
            crossed = [topology.client_link, topology.peer_link]
        else:
            crossed = to_origin[:depth + 1] if depth >= 0 else to_origin
        seconds = path_latency(crossed, transfer)
        latency.add(request.doc_type, seconds)
        latency.baseline.add(path_latency(to_origin, transfer))
        edge_latency[edge].add(seconds)
    return nodes, network, sibling_serves, latency, edge_latency


def moments(stats):
    return stats.count, stats.mean


def run_and_check(config, requests):
    """Run the real walk, capture its depth column, and hold every
    tally of the result to the per-request accountant."""
    columns = []
    drive = NetworkSimulator._drive

    def spy(self, *args):
        columns.append(drive(self, *args))
        return columns[-1]

    with mock.patch.object(NetworkSimulator, "_drive", spy):
        result = NetworkSimulator(config).run(Trace(requests))
    (served,) = columns
    nodes, network, sibling_serves, latency, edge_latency = \
        account_per_request(config.topology, requests, served,
                            result.warmup_requests)
    assert result.network.as_dict() == network.as_dict()
    assert result.sibling_serves == sibling_serves
    for name, metrics in nodes.items():
        assert result.nodes[name].metrics.as_dict() == \
            metrics.as_dict(), name
    if config.measure_latency:
        assert moments(result.latency.overall) == moments(latency.overall)
        assert moments(result.latency.baseline) == \
            moments(latency.baseline)
        for doc_type, stats in latency.by_type.items():
            assert moments(result.latency.by_type[doc_type]) == \
                moments(stats), doc_type
        for edge, stats in edge_latency.items():
            assert moments(result.nodes[edge].latency) == \
                moments(stats), edge
    else:
        assert result.latency is None
    return served, result.warmup_requests


POLICY = st.sampled_from(["lru", "gds(1)"])
TOPOLOGY = st.one_of(
    st.builds(sibling_mesh, st.just(1500), st.integers(2, 4), POLICY),
    st.builds(lambda levels, branching, policy:
              tree([900, 1500, 2500][:levels], branching, policy),
              st.integers(1, 3), st.integers(1, 3), POLICY),
    st.builds(lambda levels, policy:
              path([900, 1500, 2500][:levels], policy),
              st.integers(1, 3), POLICY))
#: Few documents, sizes that sometimes change (stale copies), are zero
#: or outgrow some node (1000) or every node (3000, bypasses),
#: transfers on both sides of the size (the clamp), and a type drawn
#: per request (a url changes type).
REQUESTS = st.lists(
    st.builds(lambda doc, size, transfer, code: Request(
        0.0, f"u{doc}", size, transfer, DOCUMENT_TYPES[code]),
        st.integers(0, 7),
        st.sampled_from([300, 300, 300, 700, 0, 1000, 3000]),
        st.sampled_from([100, 300, 900]),
        st.integers(0, len(DOCUMENT_TYPES) - 1)),
    max_size=60)


@settings(deadline=None)
@given(TOPOLOGY, st.sampled_from(["lce", "lcd", "probcache"]),
       st.booleans(), st.booleans(),
       st.sampled_from([0.0, 0.1, 0.5, 0.9]), REQUESTS)
def test_depth_column_tallies_equal_per_request_accounting(
        topology, strategy, replicate, measure_latency, warmup_fraction,
        requests):
    run_and_check(NetworkConfig(
        topology=topology, strategy=strategy,
        warmup_fraction=warmup_fraction,
        measure_latency=measure_latency,
        replicate_on_sibling_hit=replicate), requests)


def test_sibling_serves_on_both_sides_of_the_boundary():
    """Each document is asked for at proxy0 then at proxy1, so every
    second request is a sibling serve, warm-up included."""
    requests = [Request(0.0, f"u{i // 2}", 100, 100, DOCUMENT_TYPES[i % 5])
                for i in range(40)]
    for strategy in ("lce", "lcd"):
        served, warmup = run_and_check(NetworkConfig(
            topology=sibling_mesh(10_000, n_proxies=2),
            strategy=strategy, warmup_fraction=0.5), requests)
        assert warmup == 20
        assert served[:warmup].count(-2) == served[warmup:].count(-2) == 10


def stats_fields(stats):
    return {slot: getattr(stats, slot) for slot in StreamingStats.__slots__}


def assert_cascade_is_the_walk(trace, config):
    """The cascade's result equals the walk's: every ``as_dict`` key and
    every field of every latency accumulator."""
    assert fastpath_eligible(config)
    walk = NetworkSimulator(config).run(trace)
    fast = run_network(trace, config)
    assert fast.as_dict() == walk.as_dict()
    if config.measure_latency:
        for name in ("overall", "baseline"):
            assert stats_fields(getattr(fast.latency, name)) == \
                stats_fields(getattr(walk.latency, name)), name
        for doc_type, stats in walk.latency.by_type.items():
            assert stats_fields(fast.latency.by_type[doc_type]) == \
                stats_fields(stats), doc_type
    else:
        assert fast.latency is walk.latency is None
    for name, node in walk.nodes.items():
        assert stats_fields(fast.nodes[name].latency) == \
            stats_fields(node.latency), name
    return fast


CAPACITY = st.sampled_from([900, 1500, 2500])
QUEUE_POLICY = st.sampled_from(["lru", "fifo"])
#: Every policy a cascade node replays: the queue's and the heap's.
REPLAYED_POLICY = st.sampled_from(["lru", "fifo", "gds(1)", "gds(p)",
                                   "gdsf(1)", "gd*(1)", "gd*(p)", "lfu-da"])


def cascade_topologies(policy):
    """Every cascade-eligible shape, no sibling ring, with a ``policy``
    drawn per level."""
    level_policies = st.lists(policy, min_size=3, max_size=3)
    return st.one_of(
        st.builds(single, CAPACITY, policy),
        st.builds(two_level, CAPACITY, CAPACITY, policy, policy,
                  n_children=st.integers(1, 3)),
        st.builds(lambda levels, branching, policies:
                  tree([900, 1500, 2500][:levels], branching,
                       policies[:levels]),
                  st.integers(1, 3), st.integers(1, 3), level_policies),
        st.builds(lambda levels, policies:
                  path([900, 1500, 2500][:levels], policies[:levels]),
                  st.integers(1, 3), level_policies))


#: LRU, FIFO and mixed trees.
CASCADE_TOPOLOGY = cascade_topologies(QUEUE_POLICY)


@settings(deadline=None)
@given(CASCADE_TOPOLOGY, st.booleans(),
       st.sampled_from([0.0, 0.1, 0.5, 0.9]), REQUESTS)
def test_cascade_equals_walk(topology, measure_latency, warmup_fraction,
                             requests):
    assert_cascade_is_the_walk(Trace(requests), NetworkConfig(
        topology=topology, warmup_fraction=warmup_fraction,
        measure_latency=measure_latency))


@settings(deadline=None)
@given(cascade_topologies(REPLAYED_POLICY), st.booleans(),
       st.sampled_from([0.0, 0.5]), REQUESTS)
def test_greedy_dual_cascade_equals_walk(topology, measure_latency,
                                         warmup_fraction, requests):
    """GDS, GDSF, GD* and LFU-DA nodes, alone or beside queue nodes,
    cascade through the heap replay."""
    assert_cascade_is_the_walk(Trace(requests), NetworkConfig(
        topology=topology, warmup_fraction=warmup_fraction,
        measure_latency=measure_latency))
