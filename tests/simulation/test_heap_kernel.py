"""The Greedy-Dual heap replay, against the object path it replaces.

:func:`repro.simulation.vectorized.replay_heap` replays
:meth:`~repro.core.cache.Cache.reference` for every
:data:`~repro.core.heap_policy.HEAP_KERNEL` member without entries,
hooks or :class:`~repro.structures.addressable_heap.AddressableHeap`.
These tests hold :func:`~repro.simulation.engine.run_cells` on that
kernel to :class:`~repro.simulation.simulator.CacheSimulator` (which
still drives ``Cache.reference``) on drawn traces with size changes,
zero sizes, documents larger than the cache and equal keys, under every
size interpretation; GD* under a fixed β and under an online estimator
whose β moves mid-run.  Hypothesis shrinks a failure to a minimal trace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import gds
from repro.core.beta_estimator import FixedBetaEstimator, OnlineBetaEstimator
from repro.core.cache import Cache
from repro.core.gdstar import GDStarPolicy
from repro.core.heap_policy import HEAP_KERNEL
from repro.core.registry import POLICY_NAMES, make_policy
from repro.observability.events import set_event_sink
from repro.simulation.engine import CacheCell, fast_path, run_cells
from repro.simulation.simulator import (CacheSimulator, SimulationConfig,
                                        SizeInterpretation)
from repro.simulation.vectorized import key_costs, replay_heap
from repro.types import DocumentType, Request, Trace
from tests.simulation.test_engine import (  # noqa: F401 (fixture)
    EventRecorder,
    _null_sink_after,
)

#: Every registry name the heap replays.
HEAP_MEMBERS = [name for name in POLICY_NAMES
                if type(make_policy(name)) in HEAP_KERNEL]

#: Few distinct sizes, so equal keys (ties broken by insertion order)
#: are common; 0 exercises the size floor, 5 000 outgrows the smaller
#: capacities.
SIZES = st.sampled_from([100, 400, 100, 1_000, 0, 100, 1, 5_000])


@st.composite
def heap_traces(draw):
    """``(trace, capacity)``: requests over a few documents, each at a
    drawn base size that about one request in five changes (a
    modification, after the document has gathered hits), whose transfer
    may be cut short (the paper rule's interrupted transfer); the
    capacity is a drawn share of the documents' final sizes, so most
    traces evict and small shares bypass the largest documents."""
    documents = draw(st.integers(2, 12))
    base = draw(st.lists(SIZES, min_size=documents, max_size=documents))
    rows = draw(st.lists(st.tuples(st.integers(0, documents - 1),
                                   st.integers(0, 4), SIZES,
                                   st.sampled_from([1.0, 1.0, 0.5, 0.0])),
                         min_size=20, max_size=150))
    types = list(DocumentType)
    requests = []
    for i, (doc, change, changed, share) in enumerate(rows):
        if change == 0:
            base[doc] = changed
        size = base[doc]
        requests.append(Request(float(i), f"u{doc}", size,
                                int(size * share), types[doc % len(types)]))
    share = draw(st.sampled_from([0.3, 0.1, 0.5, 0.8, 1.2]))
    return (Trace(requests, name="heap-property"),
            max(1, int(sum(base) * share)))


def equal_to_the_object_path(trace, make_config):
    """Run ``make_config()`` through ``run_cells`` (on the heap replay)
    and a second ``make_config()`` through the simulator; every reported
    figure must agree.  Returns the kernel's result."""
    config = make_config()
    assert fast_path(CacheCell(make_config())) == "heap"
    recorder = EventRecorder()
    previous = set_event_sink(recorder)
    try:
        (result,) = run_cells(trace, [config], trace_name=trace.name)
    finally:
        set_event_sink(previous)
    (finished,) = recorder.named("pass_finished")
    assert finished["heap_cells"] == 1
    reference = CacheSimulator(make_config()).run(trace,
                                                  trace_name=trace.name)
    assert result.as_dict() == reference.as_dict()
    for doc_type in DocumentType:
        assert result.metrics.by_type[doc_type].as_dict() == \
            reference.metrics.by_type[doc_type].as_dict()
    return result


@pytest.mark.parametrize("interpretation", list(SizeInterpretation),
                         ids=lambda i: i.value)
@pytest.mark.parametrize("policy", HEAP_MEMBERS)
@settings(max_examples=60, deadline=None)
@given(drawn=heap_traces(), warmup=st.sampled_from([0.0, 0.3]))
def test_kernel_is_the_object_path(policy, interpretation, drawn, warmup):
    trace, capacity = drawn
    equal_to_the_object_path(trace, lambda: SimulationConfig(
        capacity_bytes=capacity, policy=policy, warmup_fraction=warmup,
        size_interpretation=interpretation))


def test_every_member_is_replayed():
    """The table holds the paper's subject policies and GDSF; typed GD*
    and Landlord key differently and stay on the object path."""
    assert HEAP_MEMBERS == ["gd*(1)", "gd*(p)", "gds(1)", "gds(p)",
                            "gdsf(1)", "gdsf(p)", "lfu-da"]


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
@settings(max_examples=25, deadline=None)
@given(drawn=heap_traces())
def test_gdstar_under_a_fixed_beta(beta, drawn):
    trace, capacity = drawn
    result = equal_to_the_object_path(trace, lambda: SimulationConfig(
        capacity_bytes=capacity, warmup_fraction=0.0,
        policy=GDStarPolicy(beta_estimator=FixedBetaEstimator(beta))))
    assert result.final_beta == beta


def moving_estimator():
    """Refits every third gap, unclamped in practice (β may pass 1)."""
    return OnlineBetaEstimator(refresh_interval=3, min_samples=3,
                               max_beta=8.0, bins_per_decade=12)


@settings(max_examples=40, deadline=None)
@given(drawn=heap_traces())
def test_gdstar_under_a_moving_beta(drawn):
    trace, capacity = drawn
    equal_to_the_object_path(trace, lambda: SimulationConfig(
        capacity_bytes=capacity, warmup_fraction=0.0,
        policy=GDStarPolicy(beta_estimator=moving_estimator())))


def test_beta_moves_mid_run(tiny_dfn_trace):
    """On a real workload the small refresh interval refits β many
    times, and the kernel ends on the object path's β and clock."""
    trace = Trace(tiny_dfn_trace.requests[:3_000], name="dfn-head")
    policies = []

    def make_config():
        policies.append(GDStarPolicy(beta_estimator=moving_estimator()))
        return SimulationConfig(capacity_bytes=200_000,
                                policy=policies[-1])

    result = equal_to_the_object_path(trace, make_config)
    kernel, reference = policies[0], policies[-1]
    assert kernel.estimator.refreshes > 10
    assert result.final_beta != 1.0
    assert kernel.estimator.observations == \
        reference.estimator.observations
    assert kernel._clock == reference._clock


@pytest.mark.parametrize("policy", HEAP_MEMBERS)
def test_counters_residents_and_inflation(policy, tiny_dfn_trace):
    """The replay's counters and final residents are the cache's, and
    the policy ends on the cache's L."""
    requests = tiny_dfn_trace.requests[:4_000]
    capacity = 150_000
    cache = Cache(capacity, make_policy(policy))
    for request in requests:
        cache.reference(request.url, request.size, request.doc_type)
    urls = sorted({request.url for request in requests})
    ids = {url: i for i, url in enumerate(urls)}
    sizes = [request.size for request in requests]
    replayed = make_policy(policy)
    hits, counters, residents = replay_heap(
        [ids[request.url] for request in requests], sizes,
        key_costs(replayed.cost_model, np.array(sizes, dtype=np.int64)),
        capacity, replayed)
    assert sum(hits) == cache.hits
    assert counters == {name: getattr(cache, name) for name in
                        ("hits", "misses", "evictions", "bypasses",
                         "invalidations")}
    assert residents == {ids[entry.url]: entry.size
                         for entry in cache.entries()}
    assert replayed.inflation == cache.policy.inflation > 0.0


def test_keys_come_from_the_members_base_value(monkeypatch):
    """No second copy of a formula: the replay keys through the table's
    function, once per admission and per hit."""
    calls = []

    def spy(frequency, cost, size):
        calls.append(frequency)
        return gds.base_value(frequency, cost, size)

    monkeypatch.setitem(HEAP_KERNEL, gds.GDSPolicy, spy)
    trace = Trace([Request(float(i), url, 100, 100, DocumentType.HTML)
                   for i, url in enumerate("abacab")], name="spy")
    (result,) = run_cells(trace, [SimulationConfig(
        capacity_bytes=250, policy="gds(1)", warmup_fraction=0.0)])
    # a b a(hit) c(evicts b) a(hit) b(evicts c): 6 keys.
    assert calls == [1, 1, 2, 1, 3, 1]
    assert result.evictions == 2


@pytest.mark.parametrize("policy", ["gdsf(1)", "gd*(1)", "lfu-da"])
def test_a_size_change_readmits_afresh(policy):
    """``a`` gathers three references, then changes size: it is
    readmitted at frequency 1, so it, not ``b``, makes room for ``c``
    and its next reference misses."""
    rows = [("a", 100), ("a", 100), ("a", 100), ("a", 120), ("b", 100),
            ("c", 100), ("a", 120)]
    trace = Trace([Request(float(i), url, size, size, DocumentType.HTML)
                   for i, (url, size) in enumerate(rows)], name="readmit")
    result = equal_to_the_object_path(trace, lambda: SimulationConfig(
        capacity_bytes=250, policy=policy, warmup_fraction=0.0))
    assert (result.metrics.overall.hits, result.invalidations,
            result.evictions) == (2, 1, 2)
