"""Benches for the extension features.

* the two extra ablation experiments (static type partitioning, IRM);
* the one-pass Mattson stack-distance analysis vs per-size simulation;
* the hierarchy simulator;
* the extended policy zoo on the DFN-like mix.
"""

import pytest

from benchmarks.conftest import run_and_report


def test_ablation_partition(benchmark, bench_scale):
    report = run_and_report(benchmark, "ablation-partition", bench_scale)
    print("\n" + report.text)
    # Partitioning LRU by request shares must not be catastrophically
    # worse than monolithic LRU on hit rate.
    assert report.data["partitioned-lru"]["hit_rate"] > \
        0.5 * report.data["lru"]["hit_rate"]


def test_ablation_irm(benchmark, bench_scale):
    report = run_and_report(benchmark, "ablation-irm", bench_scale)
    print("\n" + report.text)
    # Removing temporal correlation cannot help LRU (it lives off it).
    assert report.data["lru / irm"]["hit_rate"] <= \
        report.data["lru / power-law gaps"]["hit_rate"] + 0.02


def test_ablation_typed_beta(benchmark, bench_scale):
    report = run_and_report(benchmark, "ablation-typed-beta", bench_scale)
    print("\n" + report.text)
    # Per-type beta must never destroy overall performance.
    for trace_label in ("dfn", "rtp"):
        aggregate = report.data[f"gd*(1) / {trace_label}"]["hit_rate"]
        typed = report.data[f"gd*t(1) / {trace_label}"]["hit_rate"]
        assert typed > 0.5 * aggregate


def test_ablation_seeds(benchmark, bench_scale):
    report = run_and_report(benchmark, "ablation-seeds", bench_scale)
    print("\n" + report.text)
    assert report.data["orderings_held"] >= report.data["seeds"] - 1


def test_policy_zoo(benchmark, bench_scale):
    report = run_and_report(benchmark, "policy-zoo", bench_scale)
    print("\n" + report.text)
    belady = report.data["belady"]["hit_rate"]
    assert all(stats["hit_rate"] <= belady + 1e-9
               for stats in report.data.values())


def test_future_workload(benchmark, bench_scale):
    report = run_and_report(benchmark, "future-workload", bench_scale)
    print("\n" + report.text)
    # Packet-cost byte hit rates stay sane on the heavy-multimedia mix.
    future = report.data["future"]["byte_hit_rate_packet"]
    assert all(0.0 <= value <= 1.0 for value in future.values())


def test_verify_claims(benchmark, bench_scale):
    report = run_and_report(benchmark, "verify-claims", bench_scale)
    print("\n" + report.text)
    passed = sum(1 for claim in report.data.values() if claim["passed"])
    assert passed >= 7  # all ten at small scale; tiny is noise-limited


def test_stack_distance_one_pass(benchmark, dfn_trace):
    """The Mattson pass replaces one simulation *per cache size*."""
    from repro.analysis.stack_distance import stack_profile

    profile = benchmark.pedantic(stack_profile,
                                 args=(dfn_trace.requests,),
                                 rounds=3, iterations=1)
    benchmark.extra_info["requests"] = len(dfn_trace)
    curve = profile.curve([2 ** k for k in range(2, 15)])
    rates = [rate for _, rate in curve]
    assert rates == sorted(rates)


def test_hierarchy_simulation(benchmark, dfn_trace):
    from repro.network import NetworkConfig, run_network, two_level

    total = dfn_trace.metadata().total_size_bytes
    config = NetworkConfig(topology=two_level(
        int(total * 0.005), int(total * 0.02), n_children=4))

    result = benchmark.pedantic(run_network, args=(dfn_trace, config),
                                rounds=3, iterations=1)
    assert result.hit_rate >= result.edge_metrics().overall.hit_rate


@pytest.mark.parametrize("policy_name", [
    "slru", "lru-threshold", "landlord(1)", "hyperbolic(1)"])
def test_extended_policy_throughput(benchmark, dfn_trace, policy_name):
    from repro.core.cache import Cache
    from repro.core.registry import make_policy
    from repro.simulation.sweep import cache_sizes_from_fractions

    capacity = cache_sizes_from_fractions(dfn_trace, [0.02])[0]
    workload = [(r.url, r.size, r.doc_type) for r in dfn_trace.requests]

    def run():
        cache = Cache(capacity, make_policy(policy_name))
        for url, size, doc_type in workload:
            cache.reference(url, size, doc_type)
        return cache.hits

    assert benchmark.pedantic(run, rounds=3, iterations=1) > 0
