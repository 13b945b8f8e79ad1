"""ServedCache: simulator semantics under a lock, single-flight fills,
and the linearizability/lock-granularity stress tests."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.cache import Cache
from repro.core.policy import AccessOutcome
from repro.core.registry import make_policy
from repro.errors import ConfigurationError
from repro.serving.cache import CachedDocument, ServedCache
from repro.types import DocumentType

from tests.conftest import make_request


class TestServedCacheSemantics:
    def test_request_matches_simulator_outcomes(self):
        cache = ServedCache(1000, "lru")
        assert cache.request("a", 400) is AccessOutcome.MISS
        assert cache.request("a", 400) is AccessOutcome.HIT
        assert cache.request("a", 500) is AccessOutcome.MISS_MODIFIED
        assert cache.request("big", 5000) is AccessOutcome.MISS_TOO_BIG
        assert len(cache) == 1
        assert cache.occupancy_bytes == 500

    def test_request_stream_equals_plain_cache(self):
        """The served wrapper must not perturb the policy: same
        request stream, same hit sequence as a bare Cache."""
        rng = random.Random(7)
        stream = [(f"u{rng.randrange(50)}", rng.randrange(1, 400))
                  for _ in range(2000)]
        served = ServedCache(2000, "gdsf(1)")
        bare = Cache(2000, make_policy("gdsf(1)"))
        for url, size in stream:
            assert (served.request(url, size)
                    is bare.reference(url, size))
        assert {d.url: d.size for d in served.documents()} == {
            e.url: e.size for e in bare.entries()}

    def test_get_references_resident_and_counts_miss(self):
        cache = ServedCache(1000, "lru")
        assert cache.get("a") is None
        cache.put("a", 100, DocumentType.IMAGE)
        document = cache.get("a")
        assert isinstance(document, CachedDocument)
        assert document.size == 100
        assert document.doc_type is DocumentType.IMAGE
        assert document.frequency == 2  # put + get both reference
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 2  # the empty get + the put's miss

    def test_payload_roundtrip_and_size_check(self):
        cache = ServedCache(1000, "lru")
        cache.put("a", 3, payload=b"abc")
        assert cache.get("a").payload == b"abc"
        with pytest.raises(ConfigurationError):
            cache.put("b", 5, payload=b"xy")

    def test_payload_sidecar_dropped_with_eviction(self):
        cache = ServedCache(300, "lru")
        cache.put("a", 200, payload=b"x" * 200)
        cache.put("b", 200, payload=b"y" * 200)  # evicts a
        assert "a" not in cache
        assert cache.get("b").payload == b"y" * 200
        cache.check_invariants()  # payload map must not leak "a"

    def test_payload_dropped_on_delete_and_modification(self):
        cache = ServedCache(1000, "lru")
        cache.put("a", 2, payload=b"aa")
        cache.put("a", 3)  # modified: stale payload must go
        assert cache.get("a").payload is None
        cache.put("b", 2, payload=b"bb")
        assert cache.delete("b")
        assert not cache.delete("b")
        cache.check_invariants()

    def test_flush_clears_everything(self):
        cache = ServedCache(1000, "lru")
        cache.put("a", 100, payload=b"x" * 100)
        cache.flush()
        assert len(cache) == 0
        assert cache.get("a") is None
        cache.check_invariants()

    def test_stats_exposes_next_victim(self):
        cache = ServedCache(1000, "lru")
        cache.put("old", 100)
        cache.put("new", 100)
        assert cache.stats().next_victim == "old"
        cache.get("old")  # now "new" is least recently used
        assert cache.stats().next_victim == "new"

    def test_stats_hit_rate(self):
        cache = ServedCache(1000, "lru")
        cache.put("a", 100)
        cache.put("a", 100)
        stats = cache.stats()
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.as_dict()["hit_rate"] == pytest.approx(0.5)


class TestSingleFlight:
    def test_hit_never_calls_loader(self):
        cache = ServedCache(1000, "lru")
        cache.put("a", 100)
        document = cache.get_or_fetch(
            "a", lambda url: pytest.fail("loader on a hit"))
        assert document.size == 100

    def test_miss_fills_once_and_caches(self):
        cache = ServedCache(1000, "lru")
        calls = []

        def loader(url):
            calls.append(url)
            return 100, DocumentType.HTML, b"z" * 100

        first = cache.get_or_fetch("a", loader)
        second = cache.get_or_fetch("a", loader)
        assert calls == ["a"]
        assert first.payload == second.payload == b"z" * 100

    def test_concurrent_misses_coalesce_to_one_fill(self):
        """K threads missing the same URL → exactly 1 loader call."""
        cache = ServedCache(10_000, "lru")
        gate = threading.Event()
        fills = []
        fill_lock = threading.Lock()

        def loader(url):
            with fill_lock:
                fills.append(url)
            gate.wait(5.0)  # hold the flight open until all arrive
            return 64, DocumentType.IMAGE, b"p" * 64

        results = [None] * 8
        ready = threading.Barrier(9)

        def worker(index):
            ready.wait()
            results[index] = cache.get_or_fetch("hot", loader)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        ready.wait()
        # Give followers time to pile onto the flight, then release.
        import time
        time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(10.0)
        assert fills == ["hot"]
        assert all(r is not None and r.payload == b"p" * 64
                   for r in results)
        assert cache.stats().fills == 1
        assert cache.stats().coalesced_fills >= 1

    def test_leader_exception_shared_then_retried(self):
        cache = ServedCache(1000, "lru")
        attempts = []

        def failing(url):
            attempts.append(url)
            raise OSError("origin down")

        with pytest.raises(OSError):
            cache.get_or_fetch("a", failing)
        # The flight is gone; a new call retries the loader.
        with pytest.raises(OSError):
            cache.get_or_fetch("a", failing)
        assert attempts == ["a", "a"]

    def test_too_big_document_served_uncached(self):
        cache = ServedCache(100, "lru")
        document = cache.get_or_fetch(
            "huge", lambda url: (500, DocumentType.MULTIMEDIA))
        assert document.size == 500
        assert "huge" not in cache

    def test_malformed_loader_return_rejected(self):
        cache = ServedCache(1000, "lru")
        with pytest.raises(ConfigurationError):
            cache.get_or_fetch("a", lambda url: 100)


class TestLinearizability:
    """N threads × seeded op mix; the serialized journal replayed
    sequentially must land in exactly the concurrent run's state."""

    @pytest.mark.parametrize("policy", ["lru", "gdsf(1)", "lfu-da"])
    def test_concurrent_ops_equal_journal_replay(self, policy):
        cache = ServedCache(5000, policy, record_ops=True)
        n_threads, ops_per_thread = 8, 400

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(ops_per_thread):
                url = f"u{rng.randrange(60)}"
                roll = rng.random()
                if roll < 0.70:
                    cache.request(url, 50 + (hash(url) % 300))
                elif roll < 0.85:
                    cache.get(url)
                elif roll < 0.95:
                    cache.put(url, 50 + (hash(url) % 300),
                              DocumentType.IMAGE)
                else:
                    cache.delete(url)

        threads = [threading.Thread(target=worker, args=(1000 + i,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        cache.check_invariants()

        journal = cache.journal()
        assert len(journal) >= n_threads * ops_per_thread
        replica = ServedCache.replay_journal(journal, 5000, policy)
        assert ({d.url: d.size for d in replica.documents()}
                == {d.url: d.size for d in cache.documents()})
        rep_stats, live_stats = replica.stats(), cache.stats()
        assert rep_stats.hits == live_stats.hits
        assert rep_stats.misses == live_stats.misses
        assert rep_stats.evictions == live_stats.evictions

    def test_journal_requires_record_ops(self):
        with pytest.raises(ConfigurationError):
            ServedCache(100, "lru").journal()


class TestLockGranularity:
    """Policy structures must never be observable mid-eviction: reader
    threads hammer the invariant checks while writers force constant
    evictions through a small cache."""

    @pytest.mark.parametrize("policy", ["lru", "gdsf(1)"])
    def test_readers_never_see_torn_state(self, policy):
        cache = ServedCache(600, policy)  # tiny → every put evicts
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                try:
                    cache.check_invariants()
                    cache.stats()
                    cache.resident_urls()
                except BaseException as exc:  # pragma: no cover
                    torn.append(exc)
                    return

        def writer(seed):
            rng = random.Random(seed)
            for _ in range(1500):
                cache.request(f"w{rng.randrange(40)}",
                              100 + rng.randrange(150))

        readers = [threading.Thread(target=reader) for _ in range(3)]
        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(4)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(30.0)
        stop.set()
        for thread in readers:
            thread.join(10.0)
        assert not torn, f"reader observed torn state: {torn[0]!r}"
        cache.check_invariants()


def test_request_factory_smoke():
    """The shared request factory produces entries the served cache
    accepts (ties the serving tests to the repo-wide fixtures)."""
    request = make_request(url="http://x/a.html", size=128)
    cache = ServedCache(1024, "lru")
    assert cache.request(request.url, request.size,
                         request.doc_type) is AccessOutcome.MISS
