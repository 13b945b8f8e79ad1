"""Behavioural tests for LFU with Dynamic Aging (paper Section 3)."""

from repro.core.cache import Cache
from repro.core.lfu_da import LFUDAPolicy

from tests.core.helpers import ref, resident_urls


def cache(capacity=30):
    return Cache(capacity, LFUDAPolicy())


def test_behaves_like_lfu_before_first_eviction():
    c = cache()
    ref(c, "a"), ref(c, "a")
    ref(c, "b")
    ref(c, "c")
    ref(c, "d")   # b or c (freq 1) evicted, not a
    assert "a" in c


def test_cache_age_advances_on_eviction():
    policy = LFUDAPolicy()
    c = Cache(30, policy)
    ref(c, "a"), ref(c, "b"), ref(c, "c")
    assert policy.inflation == 0.0
    ref(c, "d")   # evicts a with key 1 + 0
    assert policy.inflation == 1.0


def test_aging_prevents_pollution():
    """The dead formerly-hot document is eventually evicted — the exact
    scenario plain LFU fails (see test_lfu.test_cache_pollution)."""
    c = cache(30)
    for _ in range(100):
        ref(c, "hot")          # key 100
    # Stream of fresh documents; each admission uses key 1 + inflation,
    # and inflation climbs with each eviction until it passes hot's key.
    for i in range(300):
        ref(c, f"n{i}")
    assert "hot" not in c


def test_recently_referenced_beats_equally_frequent_older():
    policy = LFUDAPolicy()
    c = Cache(30, policy)
    for _ in range(5):
        ref(c, "old")          # key 5
    for i in range(10):        # force evictions to raise the age
        ref(c, f"f{i}")
    age = policy.inflation
    assert age > 0
    ref(c, "new")              # key 1 + age
    # If the age exceeds old's standalone key, new outranks old.
    if 1 + age > 5:
        ref(c, "filler-a"), ref(c, "filler-b")
        assert "new" in c


def test_invalidation_does_not_advance_age():
    policy = LFUDAPolicy()
    c = Cache(30, policy)
    for _ in range(9):
        ref(c, "a")
    c.invalidate("a")
    assert policy.inflation == 0.0


def test_age_monotone_nondecreasing():
    policy = LFUDAPolicy()
    c = Cache(50, policy)
    import random
    rng = random.Random(2)
    last_age = 0.0
    for i in range(500):
        ref(c, f"u{rng.randint(0, 30)}")
        assert policy.inflation >= last_age
        last_age = policy.inflation


def test_clear_resets_age():
    policy = LFUDAPolicy()
    c = Cache(30, policy)
    for url in "abcd":
        ref(c, url)
    assert policy.inflation > 0
    c.flush()
    assert policy.inflation == 0.0
