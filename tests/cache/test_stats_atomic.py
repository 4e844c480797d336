"""Atomicity of the counter snapshots (satellite of the async-serving PR).

Concurrent serving-loop drain threads read these counters while other
drains are mid-update; every read path must be one locked snapshot, never a
field-by-field walk that can observe half of an update."""

from __future__ import annotations

import threading

from repro.cache.memo import PlanCache
from repro.cache.stats import DecodeStats


class TestDecodeStatsAtomicity:
    def test_snapshot_derived_totals_consistent_under_hammer(self):
        stats = DecodeStats()
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                snapshot = stats.snapshot()
                if snapshot["forwards"] != (
                    snapshot["full_forwards"]
                    + snapshot["incremental_forwards"]
                    + snapshot["fallback_forwards"]
                ):
                    torn.append(snapshot)  # pragma: no cover - the bug case
                if snapshot["tokens_encoded"] != (
                    snapshot["tokens_full"]
                    + snapshot["tokens_incremental"]
                    + snapshot["tokens_fallback"]
                ):
                    torn.append(snapshot)  # pragma: no cover - the bug case

        def writer():
            for _ in range(2000):
                stats.record_full(3)
                stats.record_incremental(1)
                stats.record_fallback(2)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        observer = threading.Thread(target=reader)
        observer.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        observer.join()
        assert torn == []
        final = stats.snapshot()
        assert final["forwards"] == 3 * 2000 * 3
        assert final["tokens_encoded"] == 3 * 2000 * (3 + 1 + 2)
        # The derived properties agree with the locked snapshot.
        assert stats.forwards == final["forwards"]
        assert stats.tokens_encoded == final["tokens_encoded"]


class TestPlanCacheCounters:
    def test_counters_snapshot_matches_cache_info(self):
        cache = PlanCache(2)
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        counters = cache.counters()
        info = cache.cache_info()
        for key in ("size", "maxsize", "hits", "misses", "evictions", "invalidations"):
            assert counters[key] == info[key]
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["evictions"] == 1

    def test_counters_consistent_under_concurrent_lookups(self):
        cache = PlanCache(64)
        barrier = threading.Barrier(4)

        def worker(offset: int):
            barrier.wait()
            for index in range(500):
                key = ("k", (offset + index) % 32)
                if cache.get(key) is None:
                    cache.put(key, index)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = cache.counters()
        assert counters["hits"] + counters["misses"] == 4 * 500
