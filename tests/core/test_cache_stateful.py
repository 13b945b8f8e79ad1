"""Stateful tests of the ``Cache`` kernel, one machine per policy family.

Hypothesis drives arbitrary interleavings of ``reference`` (new
document, resident at the same size, resident at a changed size, larger
than the cache, size 0), ``invalidate`` and ``flush`` through a cache on
each kind of backing structure — dlist (``lru``, ``slru``,
``lru-threshold``), heap (``gds(1)``, ``gd*(1)``, ``lfu-da``,
``landlord(1)``), sample (``hyperbolic(1)``) and wrapper
(``SecondHitAdmission`` around ``lru``).  After every step the byte
accounting, the counters and the ``on_evict`` calls must agree with
what the residency map shows happened.
"""

from collections import Counter
from functools import partial

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.admission import SecondHitAdmission
from repro.core.cache import Cache
from repro.core.lru import LRUPolicy
from repro.core.lru_threshold import LRUThresholdPolicy
from repro.core.policy import AccessOutcome
from repro.core.registry import make_policy
from repro.types import DocumentType

CAPACITY = 200
THRESHOLD = 60

POLICIES = {name: partial(make_policy, name) for name in (
    "lru", "slru", "gds(1)", "gd*(1)", "lfu-da", "landlord(1)")}
POLICIES["hyperbolic(1)"] = partial(make_policy, "hyperbolic(1)", seed=3)
POLICIES["lru-threshold"] = partial(make_policy, "lru-threshold",
                                    threshold_bytes=THRESHOLD)
POLICIES["2hit+lru"] = lambda: SecondHitAdmission(LRUPolicy(),
                                                  window_urls=4)

URLS = st.sampled_from([f"u{i}" for i in range(12)])
#: Size 0, sizes that fit, sizes that need several evictions, and
#: sizes at and beyond the whole cache.
SIZES = st.one_of(st.just(0), st.integers(1, 90),
                  st.sampled_from([CAPACITY - 1, CAPACITY, CAPACITY + 1,
                                   3 * CAPACITY]))


class CacheMachine(RuleBasedStateMachine):
    policy_name = None   # set by the per-policy subclasses

    def __init__(self):
        super().__init__()
        self.policy = POLICIES[self.policy_name]()
        self.cache = Cache(CAPACITY, self.policy)
        self.cache.on_evict = self.observe_departure
        self.departed = []

    def observe_departure(self, entry):
        # Fires after the entry has left residency *and* the policy:
        # the cache is consistent at the moment of the call.
        assert self.cache.get(entry.url) is not entry
        self.cache.check_invariants()
        self.departed.append(entry)

    def step(self, action):
        """Run one mutation and check it against the residency diff."""
        cache = self.cache
        before = {entry.url: entry for entry in cache.entries()}
        counters = (cache.evictions, cache.invalidations)
        self.departed = []
        result = action()
        left = [entry for url, entry in before.items()
                if cache.get(url) is not entry]
        return result, left, (cache.evictions - counters[0],
                              cache.invalidations - counters[1])

    def departures_match(self, left):
        assert Counter(map(id, self.departed)) == Counter(map(id, left))

    def refused(self, size):
        """Whether admission must (True), must not (False) or may
        (None) refuse a document that is not resident."""
        if size > CAPACITY:
            return True
        if self.policy_name == "lru-threshold":
            return size > THRESHOLD
        if self.policy_name == "2hit+lru":
            return None
        return False

    def reference(self, url, size):
        cache = self.cache
        resident = cache.get(url)
        hits, misses, bypasses = cache.hits, cache.misses, cache.bypasses
        outcome, left, (evicted, invalidated) = self.step(
            lambda: cache.reference(url, size, DocumentType.HTML))
        self.departures_match(left)
        if resident is not None and resident.size == size:
            assert outcome is AccessOutcome.HIT
            assert cache.get(url) is resident and not left
            assert (cache.hits, cache.misses) == (hits + 1, misses)
            assert cache.bypasses == bypasses
            return
        assert (cache.hits, cache.misses) == (hits, misses + 1)
        assert invalidated == (resident is not None)
        refused = self.refused(size)
        if outcome is AccessOutcome.MISS_TOO_BIG:
            assert refused is not False
            assert url not in cache
            assert cache.bypasses == bypasses + 1
            assert evicted == 0
        else:
            assert refused is not True
            assert outcome is (AccessOutcome.MISS if resident is None
                               else AccessOutcome.MISS_MODIFIED)
            admitted = cache.get(url)
            assert admitted.size == size and admitted.frequency == 1
            assert admitted.last_access == cache.clock
            assert cache.bypasses == bypasses
            assert evicted == len(left) - invalidated

    @rule(url=URLS, size=SIZES)
    def reference_any(self, url, size):
        self.reference(url, size)

    @precondition(lambda self: len(self.cache))
    @rule(data=st.data())
    def reference_resident_same_size(self, data):
        entry = data.draw(st.sampled_from(
            sorted(self.cache.entries(), key=lambda e: e.url)))
        self.reference(entry.url, entry.size)

    @precondition(lambda self: len(self.cache))
    @rule(data=st.data(), size=SIZES)
    def reference_resident_changed_size(self, data, size):
        entry = data.draw(st.sampled_from(
            sorted(self.cache.entries(), key=lambda e: e.url)))
        self.reference(entry.url, size if size != entry.size else size + 1)

    @rule(url=URLS)
    def invalidate(self, url):
        cache = self.cache
        resident = cache.get(url)
        clock = cache.clock
        found, left, (evicted, invalidated) = self.step(
            lambda: cache.invalidate(url))
        self.departures_match(left)
        assert found == (resident is not None)
        assert left == ([resident] if found else [])
        assert (evicted, invalidated) == (0, int(found))
        assert cache.clock == clock

    @rule()
    def flush(self):
        cache = self.cache
        _, left, moved = self.step(cache.flush)
        assert len(cache) == 0 and cache.used_bytes == 0
        assert self.departed == [] and moved == (0, 0)
        assert len(self.policy) == 0

    @rule()
    def negative_size_is_refused_before_anything_moves(self):
        cache = self.cache
        clock = cache.clock
        with pytest.raises(ValueError):
            cache.reference("u0", -1)
        assert cache.clock == clock

    @invariant()
    def accounting_holds(self):
        cache = self.cache
        cache.check_invariants()
        assert cache.used_bytes <= cache.capacity_bytes
        assert cache.hits + cache.misses == cache.clock


def machine_for(name):
    machine = type(f"CacheMachine[{name}]", (CacheMachine,),
                   {"policy_name": name})
    machine.TestCase.settings = settings(
        max_examples=100, stateful_step_count=50, deadline=None)
    return machine.TestCase


TestLRU = machine_for("lru")
TestSLRU = machine_for("slru")
TestGDS = machine_for("gds(1)")
TestGDStar = machine_for("gd*(1)")
TestLFUDA = machine_for("lfu-da")
TestLandlord = machine_for("landlord(1)")
TestHyperbolic = machine_for("hyperbolic(1)")
TestLRUThreshold = machine_for("lru-threshold")
TestSecondHit = machine_for("2hit+lru")


# ----- the admission gate, resolved once at construction ---------------------


def counters(cache):
    return {"hits": cache.hits, "misses": cache.misses,
            "bypasses": cache.bypasses, "evictions": cache.evictions,
            "invalidations": cache.invalidations,
            "resident": sorted(entry.url for entry in cache.entries())}


def test_admits_override_bypasses_and_counts():
    cache = Cache(100, LRUThresholdPolicy(threshold_bytes=30))
    outcomes = [cache.reference(url, size) for url, size in [
        ("small", 30),    # at the threshold: admitted
        ("big", 31),      # above it: bypassed, though it would fit
        ("huge", 101),    # larger than the cache: never reaches the policy
        ("small", 31),    # modified past the threshold: dropped, bypassed
        ("small", 10),    # and admitted again once it shrinks
        ("small", 10),
    ]]
    assert outcomes == [
        AccessOutcome.MISS, AccessOutcome.MISS_TOO_BIG,
        AccessOutcome.MISS_TOO_BIG, AccessOutcome.MISS_TOO_BIG,
        AccessOutcome.MISS, AccessOutcome.HIT]
    assert counters(cache) == {
        "hits": 1, "misses": 5, "bypasses": 3, "evictions": 0,
        "invalidations": 1, "resident": ["small"]}


def test_admits_url_wrapper_bypasses_and_counts():
    policy = SecondHitAdmission(LRUThresholdPolicy(threshold_bytes=30))
    cache = Cache(100, policy)
    outcomes = [cache.reference(url, size) for url, size in [
        ("a", 20),      # first sighting: remembered, bypassed
        ("a", 20),      # second: admitted
        ("a", 20),
        ("big", 31),    # the inner policy's size gate runs first, so
        ("big", 31),    # an oversized url is never even remembered
        ("huge", 101),
        ("a", 25),      # modified: dropped, first sighting again
        ("a", 25),
    ]]
    assert outcomes == [
        AccessOutcome.MISS_TOO_BIG, AccessOutcome.MISS, AccessOutcome.HIT,
        AccessOutcome.MISS_TOO_BIG, AccessOutcome.MISS_TOO_BIG,
        AccessOutcome.MISS_TOO_BIG,
        AccessOutcome.MISS_TOO_BIG, AccessOutcome.MISS]
    assert counters(cache) == {
        "hits": 1, "misses": 7, "bypasses": 5, "evictions": 0,
        "invalidations": 1, "resident": ["a"]}
