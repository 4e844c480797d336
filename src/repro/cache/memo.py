"""Bounded LRU memoisation of planned influence paths.

:class:`PlanCache` maps a planning context key — the issue's
``(tuple(history), objective, user_index, max_length)`` — to an immutable
planned path, with hit/miss/eviction counters.  A
``maxsize`` of 0 disables the cache entirely (every ``get`` misses, ``put``
is a no-op), which is how ``tests/core/test_cached_planning.py`` builds its
pre-cache reference planner.

The cache is deliberately value-agnostic: :class:`~repro.core.beam.
BeamSearchPlanner` uses one instance for finished plans and a second one for
the evolving per-context serving plans behind ``next_step`` (the
generalisation of its old single replan slot), so the two families of
entries can never shadow each other.

Thread safety
-------------
Every mutation of the LRU map is guarded by one reentrant lock, so a
:class:`PlanCache` can be consulted concurrently — by the serving loop's
drain thread and the callers answered at admission, or by the evaluation
protocol's rollout threads sharing one planner — without corrupting the
``OrderedDict``.  The hit/miss/eviction counters live in the process-wide
metrics registry (:mod:`repro.obs.registry`) under a per-instance
``cache.plan.<n>`` scope — each lookup applies its counter update in one
registry-lock acquisition, :meth:`counters` is one locked group read, and
the same counters surface in ``repro-irs metrics`` exports.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

from repro.obs.registry import MetricGroup, get_registry
from repro.utils.exceptions import ConfigurationError

__all__ = ["PlanCache"]

_COUNTER_FIELDS = ("hits", "misses", "evictions", "invalidations")


class PlanCache:
    """A bounded LRU mapping hashable planning keys to memoised values."""

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ConfigurationError(f"maxsize must be non-negative, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.RLock()
        registry = get_registry()
        self._counters = MetricGroup(
            registry, registry.scope("cache.plan"), counters=_COUNTER_FIELDS
        )

    # ------------------------------------------------------------------ #
    # Counter reads keep their historical attribute spelling
    # (``cache.hits`` etc.) as registry-backed properties.
    # ------------------------------------------------------------------ #
    @property
    def hits(self) -> int:
        return self._counters.value("hits")

    @property
    def misses(self) -> int:
        return self._counters.value("misses")

    @property
    def evictions(self) -> int:
        return self._counters.value("evictions")

    @property
    def invalidations(self) -> int:
        return self._counters.value("invalidations")

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def get(self, key: Hashable):
        """Return the cached value (refreshing its recency) or ``None``."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._counters.record(add={"hits": 1})
                return self._data[key]
            self._counters.record(add={"misses": 1})
            return None

    def probe(self, key: Hashable, accept):
        """:meth:`get`, but only when ``accept(value)`` holds.

        An accepted entry counts one hit and refreshes its recency, exactly
        like :meth:`get`.  An absent or rejected one returns ``None`` and
        counts NOTHING: the caller falls back to a path that looks the key
        up again through :meth:`get`, and a request must count one lookup.
        """
        with self._lock:
            value = self._data.get(key)
            if value is None or not accept(value):
                return None
            self._data.move_to_end(key)
            self._counters.record(add={"hits": 1})
            return value

    def peek(self, key: Hashable):
        """The cached value or ``None`` — counting nothing and leaving the
        entry's recency alone (an observer's read, not a lookup)."""
        with self._lock:
            return self._data.get(key)

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh an entry, evicting the least recently used beyond ``maxsize``."""
        if self.maxsize == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            evicted = 0
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                evicted += 1
            if evicted:
                self._counters.record(add={"evictions": evicted})

    def clear(self, reset_stats: bool = False) -> None:
        """Drop every entry (model retrain invalidation).

        Counters are kept by default — an invalidation is part of the cache's
        lifetime story, and callers read the totals afterwards.  With
        ``reset_stats=True`` the hit/miss/eviction/invalidation counters are
        also zeroed, so a cache recycled between workloads reports each
        workload's counts alone.
        """
        with self._lock:
            if self._data:
                self._counters.record(add={"invalidations": 1})
            self._data.clear()
            if reset_stats:
                self._counters.reset()

    # ------------------------------------------------------------------ #
    def counters(self) -> dict:
        """One locked snapshot of the size and hit/miss/eviction counters.

        Callers combining counters (the planner's ``cache_info``, the
        serving loop's stats endpoint) must use this instead of reading the
        ``hits`` / ``misses`` / ... attributes one by one: a drain thread
        recording a lookup between two attribute reads would make the
        combination torn (e.g. a hit counted but not yet visible next to the
        miss total it belongs with).
        """
        with self._lock:
            counts = self._counters.values()
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": counts["hits"],
                "misses": counts["misses"],
                "evictions": counts["evictions"],
                "invalidations": counts["invalidations"],
            }

    def cache_info(self) -> dict:
        """The counters plus ``hit_rate`` (what ``planner.cache_info()`` reports)."""
        info = self.counters()
        lookups = info["hits"] + info["misses"]
        info["hit_rate"] = round(info["hits"] / lookups, 4) if lookups else 0.0
        return info
