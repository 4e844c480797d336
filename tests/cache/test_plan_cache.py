"""LRU semantics, bounds and counters of :class:`repro.cache.memo.PlanCache`."""

from __future__ import annotations

import threading

import pytest

from repro.cache.memo import PlanCache
from repro.cache.stats import DecodeStats
from repro.utils.exceptions import ConfigurationError


class TestPlanCacheLRU:
    def test_get_put_roundtrip(self):
        cache = PlanCache(4)
        assert cache.get(("h", 1)) is None
        cache.put(("h", 1), (5, 6))
        assert cache.get(("h", 1)) == (5, 6)
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_bound_holds(self):
        cache = PlanCache(2)
        for i in range(5):
            cache.put(i, i)
        assert len(cache) == 2
        assert cache.evictions == 3
        assert 3 in cache and 4 in cache  # most recent survive

    def test_lru_order_refreshed_by_get(self):
        cache = PlanCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_peek_counts_nothing_and_leaves_recency_alone(self):
        cache = PlanCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1 and cache.peek("missing") is None
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", 3)  # "a" was peeked, not touched: still the oldest
        assert "a" not in cache and "b" in cache

    def test_put_refreshes_existing_key(self):
        cache = PlanCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_zero_size_disables(self):
        cache = PlanCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.misses == 1 and cache.hits == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanCache(-1)

    def test_clear_counts_invalidations_keeps_counters(self):
        cache = PlanCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.hits == 1
        cache.clear()  # clearing an empty cache is not an invalidation
        assert cache.invalidations == 1

    def test_probe_accepted_counts_a_hit_and_refreshes_recency(self):
        cache = PlanCache(2)
        cache.put("a", (1, 2))
        cache.put("b", (3,))
        assert cache.probe("a", (1,)) == (2,)  # what follows the prefix
        assert cache.hits == 1 and cache.misses == 0
        cache.put("c", (4,))  # "a" was refreshed: "b" is the oldest now
        assert "a" in cache and "b" not in cache

    def test_probe_rejected_or_absent_counts_nothing(self):
        cache = PlanCache(2)
        cache.put("a", (1, 2))
        cache.put("b", (3,))
        assert cache.probe("a", (2,)) is None  # not a prefix of (1, 2)
        assert cache.probe("a", (1, 2, 3)) is None  # longer than the entry
        assert cache.probe("missing", ()) is None
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", (4,))  # the rejected probe left "a" the oldest
        assert "a" not in cache and "b" in cache

    def test_zero_size_probe_and_peek_find_nothing(self):
        cache = PlanCache(0)
        cache.put("a", 1)
        assert cache.probe("a", ()) is None
        assert cache.peek("a") is None
        assert cache.hits == 0 and cache.misses == 0

    def test_counters_snapshot_has_every_field(self):
        cache = PlanCache(1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("b")
        cache.get("a")
        cache.clear()
        assert cache.counters() == {
            "size": 0,
            "maxsize": 1,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "invalidations": 1,
        }

    def test_cache_info_reports_hit_rate(self):
        cache = PlanCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        info = cache.cache_info()
        assert info["size"] == 1
        assert info["maxsize"] == 4
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["hit_rate"] == 0.5


class TestDecodeStats:
    def test_records_by_kind(self):
        stats = DecodeStats()
        stats.record_full(100)
        stats.record_incremental(4)
        stats.record_fallback(50)
        assert stats.forwards == 3
        assert stats.tokens_encoded == 154
        snapshot = stats.snapshot()
        assert snapshot["tokens_incremental"] == 4
        stats.reset()
        assert stats.forwards == 0 and stats.tokens_encoded == 0

    def test_delta(self):
        stats = DecodeStats()
        stats.record_full(10)
        before = stats.snapshot()
        stats.record_incremental(2)
        delta = DecodeStats.delta(before, stats.snapshot())
        assert delta["tokens_incremental"] == 2
        assert delta["tokens_full"] == 0
        assert delta["forwards"] == 1

    def test_concurrent_records_lose_no_increments(self):
        """Sharded workers record against one shared backbone's stats."""
        import threading

        stats = DecodeStats()
        per_thread = 500

        def hammer():
            for _ in range(per_thread):
                stats.record_full(3)
                stats.record_incremental(1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.full_forwards == 4 * per_thread
        assert stats.tokens_encoded == 4 * per_thread * 4


class TestPlanCacheClearResetStats:
    """``clear(reset_stats=True)`` zeroes the counters, so a recycled cache
    reports each workload's counts alone."""

    def test_default_clear_keeps_counters(self):
        cache = PlanCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.hits == 1 and cache.invalidations == 1

    def test_reset_stats_zeroes_everything(self):
        cache = PlanCache(2)
        for i in range(4):
            cache.put(i, i)
        cache.get(3)
        cache.get("missing")
        cache.clear(reset_stats=True)
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0
        assert cache.evictions == 0 and cache.invalidations == 0
        info = cache.cache_info()
        assert info["hit_rate"] == 0.0 and info["size"] == 0

    def test_reusable_after_reset(self):
        cache = PlanCache(4)
        cache.put("a", 1)
        cache.clear(reset_stats=True)
        cache.put("b", 2)
        assert cache.get("b") == 2
        assert cache.hits == 1 and cache.misses == 0


class TestPlanCacheThreadSafety:
    def test_concurrent_eviction_consistent(self):
        cache = PlanCache(8)
        per_thread = 400

        def hammer(thread_id: int) -> None:
            for i in range(per_thread):
                cache.put((thread_id, i), i)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(cache) == 8
        # Every insert beyond the bound evicted exactly one entry.
        assert cache.evictions == 4 * per_thread - 8

    def test_concurrent_lookups_lose_no_counter_updates(self):
        """Serving drains and admission-lane callers share one cache: every
        lookup counts exactly once, whichever thread made it."""
        cache = PlanCache(16)
        for key in range(8):
            cache.put(key, (key,))
        per_thread = 512

        def hammer(thread_id: int) -> None:
            for i in range(per_thread):
                cache.get(i % 16)  # keys 0..7 hit, 8..15 miss: half and half
                cache.probe(i % 8, ())

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert cache.misses == 4 * per_thread // 2
        assert cache.hits == 4 * per_thread // 2 + 4 * per_thread
