"""Behavioural tests for the extension policies: LRU-Threshold,
Landlord, Hyperbolic, and SLRU."""

import random

import pytest

from repro.core.cache import Cache
from repro.core.cost import ConstantCost, PacketCost
from repro.core.gds import GDSPolicy
from repro.core.hyperbolic import HyperbolicPolicy
from repro.core.landlord import LandlordPolicy
from repro.core.lru import LRUPolicy
from repro.core.lru_threshold import LRUThresholdPolicy
from repro.core.policy import AccessOutcome
from repro.core.slru import SLRUPolicy
from repro.errors import ConfigurationError

from tests.core.helpers import ref, resident_urls


class TestLRUThreshold:
    def test_validates(self):
        with pytest.raises(ConfigurationError):
            LRUThresholdPolicy(0)

    def test_oversized_documents_bypassed(self):
        cache = Cache(1000, LRUThresholdPolicy(threshold_bytes=100))
        outcome = cache.reference("big", 200)
        assert outcome is AccessOutcome.MISS_TOO_BIG
        assert "big" not in cache
        assert cache.bypasses == 1

    def test_small_documents_behave_like_lru(self):
        threshold = Cache(30, LRUThresholdPolicy(threshold_bytes=10_000))
        lru = Cache(30, LRUPolicy())
        workload = ["a", "b", "c", "a", "d"]
        for url in workload:
            ref(threshold, url)
            ref(lru, url)
        assert resident_urls(threshold) == resident_urls(lru)

    def test_threshold_protects_small_docs_from_large(self):
        cache = Cache(100, LRUThresholdPolicy(threshold_bytes=50))
        ref(cache, "s1", size=20)
        ref(cache, "s2", size=20)
        ref(cache, "big", size=90)   # would evict both under plain LRU
        assert resident_urls(cache) == ["s1", "s2"]

    def test_modified_document_rechecked(self):
        cache = Cache(1000, LRUThresholdPolicy(threshold_bytes=100))
        cache.reference("a", 50)
        outcome = cache.reference("a", 200)   # modified and now too big
        assert outcome is AccessOutcome.MISS_TOO_BIG
        assert "a" not in cache


class TestLandlord:
    def test_validates_refresh(self):
        with pytest.raises(ConfigurationError):
            LandlordPolicy(refresh=1.5)

    def test_name(self):
        assert LandlordPolicy(ConstantCost()).name == "landlord(1)"
        assert LandlordPolicy(PacketCost()).name == "landlord(p)"

    def test_full_refresh_matches_gds_exactly(self):
        """Landlord with refresh=1 and GDS are the same algorithm."""
        rng = random.Random(4)
        landlord = Cache(500, LandlordPolicy(ConstantCost(), refresh=1.0))
        gds = Cache(500, GDSPolicy(ConstantCost()))
        for _ in range(3000):
            url = f"u{rng.randint(0, 60)}"
            size = 10 + hash(url) % 90
            ref(landlord, url, size=size)
            ref(gds, url, size=size)
        assert resident_urls(landlord) == resident_urls(gds)
        assert landlord.hits == gds.hits

    def test_rent_level_monotone(self):
        policy = LandlordPolicy(ConstantCost())
        cache = Cache(100, policy)
        rng = random.Random(5)
        last = 0.0
        for _ in range(300):
            ref(cache, f"u{rng.randint(0, 30)}", size=rng.choice((20, 45)))
            assert policy.inflation >= last
            last = policy.inflation

    def test_credit_diagnostics(self):
        policy = LandlordPolicy(ConstantCost())
        cache = Cache(1000, policy)
        ref(cache, "a", size=10)
        credit = policy.credit_of(cache.get("a"))
        assert credit == pytest.approx(1.0)   # c(p) = 1 at admission

    def test_partial_refresh_weakens_hits(self):
        """refresh=0 makes hits worthless: behaves like cost-aware FIFO
        with respect to reuse, so a touched document still expires."""
        policy = LandlordPolicy(ConstantCost(), refresh=0.0)
        cache = Cache(100, policy)
        ref(cache, "touched", size=50)
        for _ in range(5):
            ref(cache, "touched")
        ref(cache, "other", size=50)
        ref(cache, "new", size=50)   # someone must go
        # With no refresh, 'touched' has the oldest expiry: evicted
        # despite its six references.
        assert "touched" not in cache

    def test_clear(self):
        policy = LandlordPolicy(ConstantCost())
        cache = Cache(50, policy)
        ref(cache, "a", size=30), ref(cache, "b", size=30)
        cache.flush()
        assert policy.inflation == 0.0
        assert len(policy) == 0


class TestHyperbolic:
    def test_validates(self):
        with pytest.raises(ConfigurationError):
            HyperbolicPolicy(sample_size=0)

    def test_name(self):
        assert HyperbolicPolicy(ConstantCost()).name == "hyperbolic(1)"

    def test_high_rate_documents_survive(self):
        """Priority is a request *rate* (f/age): a document referenced
        on every tick outlives equally-old one-touch documents."""
        cache = Cache(100, HyperbolicPolicy(ConstantCost(), seed=1))
        ref(cache, "cold1", size=30)
        ref(cache, "cold2", size=30)
        ref(cache, "hot", size=40)
        for _ in range(30):
            ref(cache, "hot")       # rate ~1; colds' rates decay ~1/age
        ref(cache, "new", size=30)
        assert "hot" in cache
        assert "cold1" not in cache or "cold2" not in cache

    def test_small_sample_still_evicts(self):
        cache = Cache(30, HyperbolicPolicy(sample_size=1, seed=2))
        for url in "abcd":
            ref(cache, url)
        assert len(cache) == 3
        cache.check_invariants()

    def test_deterministic_with_seed(self):
        def run(seed):
            cache = Cache(50, HyperbolicPolicy(seed=seed))
            rng = random.Random(11)
            for _ in range(500):
                ref(cache, f"u{rng.randint(0, 30)}")
            return resident_urls(cache), cache.hits

        assert run(3) == run(3)

    def test_age_decays_priority(self):
        """An old one-hit document loses to a young one-hit document."""
        policy = HyperbolicPolicy(ConstantCost(), sample_size=64, seed=0)
        cache = Cache(30, policy)
        ref(cache, "old")
        for _ in range(20):            # age 'old' via clock ticks
            ref(cache, "old2")
        ref(cache, "young")
        entry_old = cache.get("old")
        entry_young = cache.get("young")
        assert policy._priority(entry_old) < policy._priority(entry_young)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            HyperbolicPolicy().pop_victim()


class TestSLRU:
    def test_validates(self):
        with pytest.raises(ConfigurationError):
            SLRUPolicy(protected_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SLRUPolicy(protected_fraction=1.0)

    def test_scan_resistance(self):
        """A long scan of one-touch documents cannot displace the
        twice-referenced working set."""
        cache = Cache(40, SLRUPolicy())
        for _ in range(2):
            ref(cache, "w1"), ref(cache, "w2")
        for i in range(20):
            ref(cache, f"scan{i}")
        assert "w1" in cache and "w2" in cache

    def test_lru_fallback_when_probation_empty(self):
        cache = Cache(30, SLRUPolicy(protected_fraction=0.9))
        # Promote everything.
        for url in "abc":
            ref(cache, url)
            ref(cache, url)
        # All three in protected; probation empty. New admission must
        # still find a victim.
        ref(cache, "d")
        assert len(cache) == 3
        cache.check_invariants()

    def test_demotion_bounds_protected_segment(self):
        policy = SLRUPolicy(protected_fraction=0.5)
        cache = Cache(100, policy)
        for url in "abcdefghij":
            ref(cache, url)
            ref(cache, url)     # promote each in turn
        assert policy._protected_bytes <= \
            policy._protected_limit_bytes()
        cache.check_invariants()

    def test_unattached_promotion_raises(self):
        from repro.core.policy import CacheEntry
        from repro.types import DocumentType
        policy = SLRUPolicy()
        entry = CacheEntry("u", 10, DocumentType.OTHER)
        policy.on_admit(entry)
        with pytest.raises(ConfigurationError):
            policy.on_hit(entry)

    def test_remove_from_both_segments(self):
        cache = Cache(50, SLRUPolicy())
        ref(cache, "prob")
        ref(cache, "prot"), ref(cache, "prot")
        assert cache.invalidate("prob")
        assert cache.invalidate("prot")
        cache.check_invariants()
        assert len(cache) == 0

    def test_beats_lru_on_scan_workload(self):
        slru = Cache(50, SLRUPolicy())
        lru = Cache(50, LRUPolicy())
        rng = random.Random(8)
        hot = [f"hot{i}" for i in range(3)]
        workload = []
        for i in range(2000):
            workload.append(rng.choice(hot) if rng.random() < 0.5
                            else f"scan{i}")
        for url in workload:
            ref(slru, url)
            ref(lru, url)
        assert slru.hits >= lru.hits
