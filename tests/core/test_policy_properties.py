"""Property-based tests: invariants every policy must uphold.

A random request stream is driven through a cache under every policy;
after every reference the cache's byte accounting, capacity bound, and
policy/residency agreement are asserted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.belady import BeladyPolicy, compute_next_uses
from repro.core.cache import Cache
from repro.core.registry import POLICY_NAMES, make_policy
from repro.structures.addressable_heap import AddressableHeap
from repro.types import DocumentType, Request

DOC_TYPES = list(DocumentType)

request_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),    # url id
        st.integers(min_value=1, max_value=120),   # size
        st.integers(min_value=0, max_value=4),     # doc type index
    ),
    min_size=1, max_size=150,
)

capacities = st.integers(min_value=50, max_value=400)


def drive(policy, stream, capacity):
    cache = Cache(capacity, policy)
    sizes = {}
    for url_id, size, type_index in stream:
        url = f"u{url_id}"
        # Keep a url's size stable so this exercises the normal path;
        # staleness has its own tests.
        size = sizes.setdefault(url, size)
        cache.reference(url, size, DOC_TYPES[type_index])
        cache.check_invariants()
        assert cache.used_bytes <= capacity
    return cache


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@settings(max_examples=25, deadline=None)
@given(stream=request_streams, capacity=capacities)
def test_invariants_hold_for_every_policy(policy_name, stream, capacity):
    cache = drive(make_policy(policy_name), stream, capacity)
    # Hits + misses account for every reference.
    assert cache.hits + cache.misses == len(stream)


@settings(max_examples=25, deadline=None)
@given(stream=request_streams, capacity=capacities)
def test_invariants_hold_for_belady(stream, capacity):
    sizes = {}
    requests = []
    for url_id, size, type_index in stream:
        url = f"u{url_id}"
        size = sizes.setdefault(url, size)
        requests.append(Request(0.0, url, size, size,
                                DOC_TYPES[type_index]))
    policy = BeladyPolicy(compute_next_uses(requests))
    cache = Cache(capacity, policy)
    for request in requests:
        cache.reference(request.url, request.size, request.doc_type)
        cache.check_invariants()


@settings(max_examples=20, deadline=None)
@given(stream=request_streams, capacity=capacities)
def test_staleness_invariants(stream, capacity):
    """Sizes drift per reference: invalidation paths keep accounting."""
    for policy_name in ("lru", "lfu-da", "gds(1)", "gd*(1)"):
        cache = Cache(capacity, make_policy(policy_name))
        for url_id, size, type_index in stream:
            cache.reference(f"u{url_id}", size, DOC_TYPES[type_index])
            cache.check_invariants()


@settings(max_examples=20, deadline=None)
@given(stream=request_streams, capacity=capacities,
       invalidate_every=st.integers(min_value=1, max_value=7))
def test_invalidation_interleaved(stream, capacity, invalidate_every):
    for policy_name in ("lru", "fifo", "lfu", "size", "gdsf(1)", "rand"):
        cache = Cache(capacity, make_policy(policy_name))
        sizes = {}
        for index, (url_id, size, type_index) in enumerate(stream):
            url = f"u{url_id}"
            size = sizes.setdefault(url, size)
            cache.reference(url, size, DOC_TYPES[type_index])
            if index % invalidate_every == 0:
                cache.invalidate(url)
            cache.check_invariants()


@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_deterministic_replay(policy_name):
    """Two identical runs end in identical cache states."""
    import random
    rng = random.Random(99)
    stream = [(rng.randint(0, 30), rng.randint(5, 80), rng.randint(0, 4))
              for _ in range(500)]

    def run():
        cache = Cache(300, make_policy(policy_name))
        sizes = {}
        for url_id, size, type_index in stream:
            url = f"u{url_id}"
            size = sizes.setdefault(url, size)
            cache.reference(url, size, DOC_TYPES[type_index])
        return sorted(e.url for e in cache.entries()), cache.hits

    assert run() == run()


HEAP_BACKED = [name for name in POLICY_NAMES if isinstance(
    getattr(make_policy(name), "_heap", None), AddressableHeap)]


@pytest.mark.parametrize("policy_name", HEAP_BACKED + ["belady"])
def test_heap_backed_peek_is_total_and_pure(policy_name):
    """Every policy on the shared heap previews its victim: the entry
    ``pop_victim`` returns next, with no entry and no aging level moved."""
    import random
    rng = random.Random(5)
    sizes = {}
    requests = []
    for _ in range(400):
        url = f"u{rng.randint(0, 40)}"
        size = sizes.setdefault(url, rng.randint(5, 80))
        requests.append(Request(0.0, url, size, size, DocumentType.HTML))
    if policy_name == "belady":
        policy = BeladyPolicy(compute_next_uses(requests))
    else:
        policy = make_policy(policy_name)
    assert isinstance(policy._heap, AddressableHeap)
    cache = Cache(600, policy)
    for request in requests:
        cache.reference(request.url, request.size, request.doc_type)
    assert cache.evictions > 50 and cache.hits > 50
    while cache.used_bytes > cache.capacity_bytes // 2:
        cache.invalidate(cache.next_victim().url)

    def state():
        return (len(policy), sorted(e.url for e in cache.entries()),
                [getattr(policy, level, None)
                 for level in ("inflation", "rent_level", "cache_age")])

    before = state()
    victim = policy.peek_victim()
    assert cache.next_victim() is victim
    assert cache.get(victim.url) is victim
    assert state() == before
    assert policy.pop_victim() is victim
    assert len(policy) == before[0] - 1
