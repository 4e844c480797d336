"""Hash-partitioned plan caches: one independent LRU shard per worker.

:class:`ShardedPlanCache` presents the :class:`~repro.cache.memo.PlanCache`
interface (``get`` / ``probe`` / ``peek`` / ``put`` / ``clear`` /
``cache_info`` / ``len`` / ``in`` / counter attributes) over ``num_shards`` independent LRU shards.
Keys route to shards by :func:`~repro.shard.partition.stable_hash`, the
same deterministic hash the executor partitions work with, so the worker
that plans a context and the shard that memoises it always coincide and no
entry is ever contended by two workers in the steady state (each shard is
still individually lock-guarded, so cross-shard access — e.g. an outer
evaluation layer partitioned with a different worker count — stays safe).

The configured ``maxsize`` is the TOTAL capacity, distributed across the
shards (remainder to the first shards), so sharding never changes the
memory bound or the global eviction guarantees: ``len(cache) <= maxsize``
holds exactly as for the unsharded cache.
"""

from __future__ import annotations

from typing import Hashable

from repro.cache.memo import PlanCache, merge_cache_infos
from repro.shard.partition import shard_index
from repro.utils.exceptions import ConfigurationError

__all__ = ["ShardedPlanCache", "make_plan_cache"]


def make_plan_cache(
    maxsize: int, num_shards: int, min_shard_capacity: int = 0
) -> "PlanCache | ShardedPlanCache":
    """A plain :class:`PlanCache` for one shard, a sharded one otherwise."""
    if num_shards <= 1:
        return PlanCache(maxsize)
    return ShardedPlanCache(maxsize, num_shards, min_shard_capacity=min_shard_capacity)


class ShardedPlanCache:
    """``num_shards`` independent :class:`PlanCache` shards behind one façade.

    ``min_shard_capacity`` lifts every shard to at least that many slots
    AFTER the ``maxsize`` split.  With the default of 0 the total capacity
    is exactly ``maxsize`` — but a ``maxsize`` smaller than the shard count
    then leaves some shards at capacity 0, silently disabling memoisation
    for their slice of the key space (a supported degenerate mode for the
    finished-plan cache, where size 0 means "no memoisation").  Callers
    whose semantics require every context to be cacheable — the planner's
    ``next_step`` serving cache, whose serial contract is "at least one
    slot" — pass ``min_shard_capacity=1`` and accept a total capacity of
    up to ``max(maxsize, num_shards)``.
    """

    def __init__(
        self, maxsize: int, num_shards: int, min_shard_capacity: int = 0
    ) -> None:
        if maxsize < 0:
            raise ConfigurationError(f"maxsize must be non-negative, got {maxsize}")
        if num_shards < 1:
            raise ConfigurationError(f"num_shards must be at least 1, got {num_shards}")
        if min_shard_capacity < 0:
            raise ConfigurationError(
                f"min_shard_capacity must be non-negative, got {min_shard_capacity}"
            )
        self.maxsize = int(maxsize)
        self.num_shards = int(num_shards)
        base, remainder = divmod(self.maxsize, self.num_shards)
        self.shards = [
            PlanCache(max(base + (1 if shard < remainder else 0), min_shard_capacity))
            for shard in range(self.num_shards)
        ]
        # Invalidation EVENTS are counted at the facade: one clear() of a
        # populated cache is one invalidation, however many shards held
        # entries — so the merged counter reads exactly like the serial
        # cache's (the per-shard breakdown keeps the per-shard counts).
        self._invalidations = 0

    # ------------------------------------------------------------------ #
    def shard_for(self, key: Hashable) -> PlanCache:
        """The shard owning ``key`` (stable-hash routing)."""
        return self.shards[shard_index(key, self.num_shards)]

    def get(self, key: Hashable):
        return self.shard_for(key).get(key)

    def probe(self, key: Hashable, accept):
        return self.shard_for(key).probe(key, accept)

    def peek(self, key: Hashable):
        return self.shard_for(key).peek(key)

    def put(self, key: Hashable, value) -> None:
        self.shard_for(key).put(key, value)

    def clear(self, reset_stats: bool = False) -> None:
        populated = any(len(shard) for shard in self.shards)
        for shard in self.shards:
            shard.clear(reset_stats=reset_stats)
        if reset_stats:
            self._invalidations = 0
        elif populated:
            self._invalidations += 1

    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        """The shards' slots in total: ``maxsize``, or more where
        ``min_shard_capacity`` lifted small shards."""
        return sum(shard.maxsize for shard in self.shards)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.shard_for(key)

    def counters(self) -> dict:
        """Merged counter snapshot: each shard contributes ONE locked read.

        Cross-shard consistency is per-shard (a global freeze would need one
        lock over every shard, defeating the point of sharding), but no
        single shard's contribution can be torn — concurrent drain threads
        recording lookups mid-aggregation shift whole lookups between
        snapshots, never half of one.
        """
        merged = {
            "size": 0,
            "maxsize": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }
        for shard in self.shards:
            snapshot = shard.counters()
            for key in merged:
                merged[key] += snapshot[key]
        merged["invalidations"] = self._invalidations
        return merged

    @property
    def hits(self) -> int:
        return self.counters()["hits"]

    @property
    def misses(self) -> int:
        return self.counters()["misses"]

    @property
    def evictions(self) -> int:
        return self.counters()["evictions"]

    @property
    def invalidations(self) -> int:
        """Facade-level count of clear() events on a populated cache."""
        return self._invalidations

    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict:
        """Merged counters (same keys as :meth:`PlanCache.cache_info`) plus
        the shard count and the per-shard breakdown.  ``invalidations`` is
        the facade-level event count, not the per-shard sum."""
        per_shard = [shard.cache_info() for shard in self.shards]
        info = merge_cache_infos(per_shard)
        info["invalidations"] = self._invalidations
        info["num_shards"] = self.num_shards
        info["per_shard"] = per_shard
        return info
