"""Property-based tests: invariants every policy must uphold.

A random request stream is driven through a cache under every policy;
after every reference the cache's byte accounting, capacity bound, and
policy/residency agreement are asserted.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import SecondHitAdmission
from repro.core.belady import BeladyPolicy, compute_next_uses
from repro.core.cache import Cache
from repro.core.heap_policy import HEAP_KERNEL, GreedyDualPolicy, HeapPolicy
from repro.core.registry import POLICY_NAMES, make_policy
from repro.simulation.engine import CacheCell, SimulationConfig, fast_path
from repro.types import DocumentType, Request

from tests.core.test_victim_order import CAPACITY_BYTES, golden_references

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


#: Sampling policies draw their victim in ``pop_victim``: the only ones
#: with no answer to ``peek_victim``.
CANNOT_PEEK = {"rand", "hyperbolic(1)", "hyperbolic(p)"}


@pytest.mark.parametrize("policy_name",
                         POLICY_NAMES + ["belady", "2hit+lru"])
def test_heap_backed_peek_is_total_and_pure(policy_name):
    """Every policy but the sampling ones — all on the shared heap
    among them — previews its victim: the entry ``pop_victim`` returns
    next, with no entry and no aging level moved."""
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
    elif policy_name == "2hit+lru":
        policy = SecondHitAdmission(make_policy("lru"))
    else:
        policy = make_policy(policy_name)
    cache = Cache(600, policy)
    for request in requests:
        cache.reference(request.url, request.size, request.doc_type)
    assert cache.evictions > 50 and cache.hits > 50
    if policy_name in CANNOT_PEEK:
        assert not isinstance(policy, HeapPolicy)
        with pytest.raises(NotImplementedError):
            policy.peek_victim()
        assert cache.next_victim() is None
        return
    while cache.used_bytes > cache.capacity_bytes // 2:
        cache.invalidate(cache.next_victim().url)

    def state():
        return (len(policy), sorted(e.url for e in cache.entries()),
                getattr(policy, "inflation", None))

    before = state()
    victim = policy.peek_victim()
    assert cache.next_victim() is victim
    assert cache.get(victim.url) is victim
    assert state() == before
    assert policy.pop_victim() is victim
    assert len(policy) == before[0] - 1


GREEDY_DUAL = [name for name in POLICY_NAMES
               if isinstance(make_policy(name), GreedyDualPolicy)]


def test_greedy_dual_family_is_the_registry_members_with_an_L():
    assert GREEDY_DUAL == [
        "gd*(1)", "gd*(p)", "gd*t(1)", "gd*t(p)", "gds(1)", "gds(p)",
        "gdsf(1)", "gdsf(p)", "landlord(1)", "landlord(p)", "lfu-da"]


@pytest.fixture(scope="module")
def references():
    return golden_references()


@pytest.mark.parametrize("policy_name", GREEDY_DUAL)
def test_greedy_dual_family_contract(policy_name, references):
    """One family, one contract: the engine replays the heap-kernel
    members without the object path, feeds key costs to the other
    members (which all have a cost model), L never decreases, and an
    invalidation (``remove``) never moves it."""
    cell = CacheCell(SimulationConfig(CAPACITY_BYTES, policy_name))
    cell.begin_run(0)
    policy, cache = cell.policy, cell.cache
    assert fast_path(cell) == (
        "heap" if type(policy) in HEAP_KERNEL else "hinted")
    assert (type(policy) in HEAP_KERNEL) == (
        not policy_name.startswith(("gd*t", "landlord")))
    level = policy.inflation
    assert level == 0.0
    for url, size, doc_type in references:
        evictions = cache.evictions
        cache.reference(url, size, doc_type)
        assert policy.inflation >= level
        if cache.evictions == evictions:
            # A hit, a plain admission or a modification miss whose
            # stale copy left through remove(): L stays put.
            assert policy.inflation == level
        level = policy.inflation
    assert cache.invalidations > 10 and level > 0.0
    while len(cache):
        cache.invalidate(next(cache.entries()).url)
    assert policy.inflation == level


HEAP_BACKED = [name for name in POLICY_NAMES
               if isinstance(make_policy(name), HeapPolicy)]


@pytest.mark.parametrize("policy_name", HEAP_BACKED)
def test_departed_entries_carry_no_policy_data(policy_name, references):
    """Members keep per-entry state in ``policy_data`` from ``_key``;
    whichever way an entry leaves — eviction or invalidation — the
    shared ``pop_victim`` / ``remove`` clear it."""
    policy = make_policy(policy_name)
    cache = Cache(CAPACITY_BYTES, policy)
    departed = []
    cache.on_evict = departed.append
    for url, size, doc_type in references[:3000]:
        cache.reference(url, size, doc_type)
    assert cache.evictions > 100 and cache.invalidations > 5
    assert len(departed) == cache.evictions + cache.invalidations
    assert all(entry.policy_data is None for entry in departed)
