"""Hash-partitioned plan caches: routing, capacity, merged counters, safety."""

from __future__ import annotations

import threading

import pytest

from repro.cache.memo import PlanCache, merge_cache_infos
from repro.shard.partition import shard_index
from repro.shard.plancache import ShardedPlanCache, make_plan_cache
from repro.utils.exceptions import ConfigurationError


class TestFactory:
    def test_single_shard_is_plain_cache(self):
        assert isinstance(make_plan_cache(8, 1), PlanCache)

    def test_multi_shard(self):
        cache = make_plan_cache(8, 3)
        assert isinstance(cache, ShardedPlanCache)
        assert cache.num_shards == 3


class TestRouting:
    def test_key_routes_to_stable_shard(self):
        cache = ShardedPlanCache(16, 4)
        key = ((1, 2, 3), 9, 0, 20)
        cache.put(key, ("plan",))
        owner = cache.shards[shard_index(key, 4)]
        assert key in owner
        assert cache.peek(key) == ("plan",) and cache.hits == 0
        assert cache.get(key) == ("plan",)
        assert key in cache

    def test_get_and_put_agree_with_plain_semantics(self):
        sharded = ShardedPlanCache(64, 4)
        plain = PlanCache(64)
        keys = [((i, i + 1), i % 7, None, 20) for i in range(40)]
        for i, key in enumerate(keys):
            assert sharded.get(key) is None
            sharded.put(key, i)
            plain.put(key, i)
        for i, key in enumerate(keys):
            assert sharded.get(key) == plain.get(key) == i
        assert len(sharded) == len(plain) == 40


class TestCapacity:
    def test_total_capacity_is_the_configured_maxsize(self):
        cache = ShardedPlanCache(10, 3)
        assert sum(shard.maxsize for shard in cache.shards) == 10
        for i in range(100):
            cache.put(((i,), i, None, 20), i)
        assert len(cache) <= 10

    def test_zero_maxsize_disables_every_shard(self):
        cache = ShardedPlanCache(0, 4)
        cache.put("key", "value")
        assert len(cache) == 0
        assert cache.get("key") is None

    def test_maxsize_smaller_than_shards(self):
        cache = ShardedPlanCache(1, 4)
        assert sorted(shard.maxsize for shard in cache.shards) == [0, 0, 0, 1]

    def test_min_shard_capacity_floors_every_shard(self):
        """Callers whose contract is 'every context cacheable' (the serving
        cache) lift zero-capacity shards to at least one slot."""
        cache = ShardedPlanCache(1, 4, min_shard_capacity=1)
        assert [shard.maxsize for shard in cache.shards] == [1, 1, 1, 1]
        for i in range(16):
            cache.put(((i,), i, None, 20), i)
        assert len(cache) == 4

    def test_min_shard_capacity_does_not_shrink_shares(self):
        cache = ShardedPlanCache(8, 2, min_shard_capacity=1)
        assert [shard.maxsize for shard in cache.shards] == [4, 4]

    def test_negative_min_shard_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedPlanCache(4, 2, min_shard_capacity=-1)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            ShardedPlanCache(-1, 2)
        with pytest.raises(ConfigurationError):
            ShardedPlanCache(4, 0)


class TestCounters:
    def test_merged_counters_sum_shards(self):
        cache = ShardedPlanCache(32, 4)
        keys = [((i,), i, None, 20) for i in range(20)]
        for i, key in enumerate(keys):
            cache.get(key)  # miss
            cache.put(key, i)
            cache.get(key)  # hit
        assert cache.hits == 20 and cache.misses == 20
        info = cache.cache_info()
        assert info["hits"] == 20 and info["misses"] == 20
        assert info["hit_rate"] == 0.5
        assert info["num_shards"] == 4
        assert len(info["per_shard"]) == 4
        assert sum(shard["hits"] for shard in info["per_shard"]) == 20

    def test_one_clear_of_many_populated_shards_is_one_invalidation(self):
        cache = ShardedPlanCache(32, 4)
        for i in range(20):  # populates several shards
            cache.put(((i,), i, None, 20), i)
        populated_shards = sum(1 for shard in cache.shards if len(shard))
        assert populated_shards > 1
        cache.clear()
        assert cache.invalidations == 1  # one event, like the serial cache
        assert cache.cache_info()["invalidations"] == 1

    def test_clear_keeps_then_resets_stats(self):
        cache = ShardedPlanCache(8, 2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1 and cache.invalidations == 1
        cache.clear(reset_stats=True)
        assert cache.hits == 0 and cache.misses == 0 and cache.invalidations == 0

    def test_merge_cache_infos_recomputes_hit_rate(self):
        a = PlanCache(4)
        b = PlanCache(4)
        a.put("x", 1)
        a.get("x")
        b.get("missing")
        merged = merge_cache_infos([a.cache_info(), b.cache_info()])
        assert merged["hits"] == 1 and merged["misses"] == 1
        assert merged["hit_rate"] == 0.5
        assert merged["maxsize"] == 8


class TestThreadSafety:
    def test_concurrent_hammer_loses_no_counter_updates(self):
        """The satellite contract: lock-guarded hit/miss/eviction updates."""
        cache = ShardedPlanCache(64, 2)
        per_thread = 500
        num_threads = 4

        def hammer(thread_id: int) -> None:
            for i in range(per_thread):
                key = ((thread_id, i % 10), 0, None, 20)
                cache.get(key)
                cache.put(key, i)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.hits + cache.misses == num_threads * per_thread

    def test_plain_cache_concurrent_eviction_consistent(self):
        cache = PlanCache(8)
        per_thread = 400

        def hammer(thread_id: int) -> None:
            for i in range(per_thread):
                cache.put((thread_id, i), i)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 8
        # Every insert beyond the bound evicted exactly one entry.
        assert cache.evictions == 4 * per_thread - 8
