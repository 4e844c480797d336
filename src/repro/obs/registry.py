"""Process-wide metrics registry: counters, gauges and histograms.

The serving stack grew one ad-hoc counter surface per subsystem —
``DecodeStats``, ``PlanCache`` counters, the K/V allocation dict, admission
and queue counters, dispatcher picks — each with its own lock and its own
snapshot semantics.  :class:`MetricsRegistry` replaces the *storage* layer
of all of them with one registry and **one lock**:

* every instrument (:class:`Counter`, :class:`Gauge`, :class:`Histogram`)
  mutates under the registry's single re-entrant lock, so
* :meth:`MetricsRegistry.snapshot` is a genuinely atomic read — one lock
  acquisition covers every instrument, and a snapshot taken while another
  thread is mid-update can never observe a torn combination (a hit counted
  next to a miss total it does not belong with);
* :class:`MetricGroup` bundles the instruments of one component so a
  multi-field update (``full_forwards += 1`` *and* ``tokens_full += n``)
  is one lock acquisition, exactly as atomic as the per-component locks it
  replaces;
* :meth:`MetricsRegistry.update` applies one update across the instruments
  of several components in one lock acquisition (the serving loop's
  resident answer: its own counters, admission, two histograms and the
  tenant's latency at once).

The existing public read APIs (``DecodeStats.snapshot()``,
``PlanCache.counters()``, ``allocation_stats()``, ``ServingLoop.stats()``)
keep their shapes — they become views over the registry, so no caller
changes.  Exporters (:mod:`repro.obs.export`) read the same snapshot.

Instrument names are dot-separated paths (``serve.loop.0.queue.1.enqueued``).
Components that may be instantiated many times in one process obtain a
unique namespace via :meth:`MetricsRegistry.scope`, which appends a
monotonic per-prefix index; fixed module-wide surfaces (the K/V allocation
counters) use a literal scope.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricGroup",
    "MetricsRegistry",
    "DEFAULT_BUCKETS_MS",
    "get_registry",
    "set_registry",
]

#: Default latency-histogram bucket upper bounds, in milliseconds (the last
#: bucket is the implicit +Inf overflow).
DEFAULT_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
                      1000.0, 2000.0, 5000.0)


class Counter:
    """A monotonically increasing value (int or float increments)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: "threading.RLock") -> None:
        self.name = name
        self._lock = lock
        self._value = 0

    def inc(self, amount=1) -> None:
        with self._lock:
            self._value += amount

    def value(self):
        with self._lock:
            return self._value

    def _reset_locked(self) -> None:
        self._value = 0

    def _snapshot_locked(self):
        return self._value


class Gauge:
    """A point-in-time value (queue depth, EWMA load, in-flight count)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str, lock: "threading.RLock") -> None:
        self.name = name
        self._lock = lock
        self._value = 0

    def set(self, value) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value) -> None:
        """Keep the running maximum (high-water marks)."""
        with self._lock:
            if value > self._value:
                self._value = value

    def value(self):
        with self._lock:
            return self._value

    def _reset_locked(self) -> None:
        self._value = 0

    def _snapshot_locked(self):
        return self._value


class Histogram:
    """A fixed-bucket distribution (count / sum / min / max per snapshot)."""

    __slots__ = ("name", "_lock", "buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self, name: str, lock: "threading.RLock", buckets: "tuple[float, ...]"
    ) -> None:
        self.name = name
        self._lock = lock
        self.buckets = tuple(sorted(float(bound) for bound in buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # +1: the +Inf overflow
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def observe(self, value) -> None:
        value = float(value)
        with self._lock:
            self._observe_locked(value)

    def observe_many(self, values: "Iterable[float]") -> None:
        """Record several samples under one lock acquisition."""
        with self._lock:
            for value in values:
                self._observe_locked(float(value))

    def _observe_locked(self, value: float) -> None:
        # The first bucket whose bound is >= value; NaN compares false with
        # every bound, so it goes to the +Inf overflow, never to bucket 0.
        buckets = self.buckets
        index = bisect_left(buckets, value) if value == value else len(buckets)
        self._counts[index] += 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def value(self) -> dict:
        with self._lock:
            return self._snapshot_locked()

    def _reset_locked(self) -> None:
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def _snapshot_locked(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "count": self._count,
            "sum": round(self._sum, 6),
            "min": self._min,
            "max": self._max,
            "mean": round(self._sum / self._count, 6) if self._count else 0.0,
        }


class MetricsRegistry:
    """All instruments of one process behind one re-entrant lock."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}
        self._histograms: "dict[str, Histogram]" = {}
        self._scope_indices: "dict[str, int]" = {}

    # ------------------------------------------------------------------ #
    # Namespacing
    # ------------------------------------------------------------------ #
    def scope(self, prefix: str) -> str:
        """A unique instance namespace: ``prefix.<n>`` with n monotonic.

        Components instantiated many times per process (serving loops,
        plan caches, decode-stats instances) call this once in their
        constructor so their instruments never collide.
        """
        with self._lock:
            index = self._scope_indices.get(prefix, 0)
            self._scope_indices[prefix] = index + 1
        return f"{prefix}.{index}"

    # ------------------------------------------------------------------ #
    # Instrument factories (get-or-create; names are process-unique)
    # ------------------------------------------------------------------ #
    def counter(self, name: str) -> Counter:
        with self._lock:
            self._check_free(name, self._counters)
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name, self._lock)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            self._check_free(name, self._gauges)
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, self._lock)
            return instrument

    def histogram(
        self, name: str, buckets: "tuple[float, ...]" = DEFAULT_BUCKETS_MS
    ) -> Histogram:
        with self._lock:
            self._check_free(name, self._histograms)
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name, self._lock, buckets)
            return instrument

    def _check_free(self, name: str, own: Mapping) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric name {name!r} is already registered as a different "
                    f"instrument type"
                )

    # ------------------------------------------------------------------ #
    # Atomic writes across components
    # ------------------------------------------------------------------ #
    def update(
        self,
        add: "Iterable[tuple[Counter, object]]" = (),
        max_: "Iterable[tuple[Gauge, object]]" = (),
        observe: "Iterable[tuple[Histogram, float]]" = (),
    ) -> None:
        """Apply ``(counter, amount)`` increments, ``(gauge, value)`` running
        maxima and ``(histogram, value)`` observations under ONE lock
        acquisition — the instruments may belong to several components (a
        :class:`MetricGroup` record covers one).  A snapshot sees all of it
        or none of it."""
        with self._lock:
            for counter, amount in add:
                counter._value += amount
            for gauge, value in max_:
                if value > gauge._value:
                    gauge._value = value
            for histogram, value in observe:
                histogram._observe_locked(value)

    # ------------------------------------------------------------------ #
    # Atomic reads
    # ------------------------------------------------------------------ #
    def snapshot(self, prefix: "str | None" = None) -> dict:
        """One atomic read of every instrument (optionally under ``prefix``).

        Returns ``{"counters": {name: value}, "gauges": {...},
        "histograms": {name: {...}}}``.  The whole snapshot is taken under
        one lock acquisition, so any multi-field update that happened
        through a :class:`MetricGroup` is either fully visible or not at
        all — this is what makes ``ServingLoop.stats()`` and
        ``allocation_stats()`` race-free.
        """

        def keep(name: str) -> bool:
            return prefix is None or name == prefix or name.startswith(prefix + ".")

        with self._lock:
            return {
                "counters": {
                    name: c._snapshot_locked()
                    for name, c in self._counters.items()
                    if keep(name)
                },
                "gauges": {
                    name: g._snapshot_locked()
                    for name, g in self._gauges.items()
                    if keep(name)
                },
                "histograms": {
                    name: h._snapshot_locked()
                    for name, h in self._histograms.items()
                    if keep(name)
                },
            }

    def reset(self, prefix: "str | None" = None) -> None:
        """Zero every instrument (optionally only those under ``prefix``)."""

        def keep(name: str) -> bool:
            return prefix is None or name == prefix or name.startswith(prefix + ".")

        with self._lock:
            for family in (self._counters, self._gauges, self._histograms):
                for name, instrument in family.items():
                    if keep(name):
                        instrument._reset_locked()


class MetricGroup:
    """The instruments of one component, updated under one lock acquisition.

    A group bundles counters and gauges that belong together (the six
    decode-work fields, a queue's depth/batch counters) so a logically
    atomic multi-field update stays atomic: :meth:`record` takes the
    registry lock once and applies every increment/max/set inside it —
    exactly the guarantee the per-component locks used to give, now
    composable with every other group's under the same snapshot.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        scope: str,
        counters: "Iterable[str]" = (),
        gauges: "Iterable[str]" = (),
    ) -> None:
        self.registry = registry
        self.scope = scope
        self._lock = registry._lock
        self._counters = {name: registry.counter(f"{scope}.{name}") for name in counters}
        self._gauges = {name: registry.gauge(f"{scope}.{name}") for name in gauges}

    def record(
        self,
        add: "Mapping | None" = None,
        max_: "Mapping | None" = None,
        set_: "Mapping | None" = None,
    ) -> None:
        """Apply increments (``add``, counters), running maxima (``max_``,
        gauges) and assignments (``set_``, gauges) atomically."""
        with self._lock:
            if add:
                for name, amount in add.items():
                    self._counters[name]._value += amount
            if max_:
                for name, value in max_.items():
                    gauge = self._gauges[name]
                    if value > gauge._value:
                        gauge._value = value
            if set_:
                for name, value in set_.items():
                    self._gauges[name]._value = value

    def counter(self, name: str) -> Counter:
        """One counter of the group, for a :meth:`MetricsRegistry.update`
        spanning several components."""
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """One gauge of the group (see :meth:`counter`)."""
        return self._gauges[name]

    def value(self, name: str):
        """One field's current value (single locked read)."""
        with self._lock:
            if name in self._counters:
                return self._counters[name]._value
            return self._gauges[name]._value

    def values(self) -> dict:
        """Every field of the group under one lock acquisition."""
        with self._lock:
            snapshot = {name: c._value for name, c in self._counters.items()}
            snapshot.update({name: g._value for name, g in self._gauges.items()})
            return snapshot

    def reset(self) -> None:
        with self._lock:
            for instrument in self._counters.values():
                instrument._reset_locked()
            for instrument in self._gauges.values():
                instrument._reset_locked()


# ---------------------------------------------------------------------- #
# The process-wide default registry
# ---------------------------------------------------------------------- #
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every component records into."""
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one.

    Existing components keep the instruments they were constructed with —
    the swap only affects components created afterwards.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous


# ---------------------------------------------------------------------- #
# Fork safety
# ---------------------------------------------------------------------- #
# A forked child keeps every object its parent had, locks included, but only
# the forking thread: a registry lock another thread held at that instant
# would stay locked in the child for good, and the first inherited instrument
# the child touched (a fitted planner's cache counters, say) would hang it.
# The forking thread therefore takes the default registry's lock across
# ``fork`` and both sides release it — no other thread can be inside it at
# the instant of the fork.  (A worker process installs a fresh registry for
# what it builds itself; this is about what it inherits.)
_held_across_fork: "list[threading.RLock]" = []


def _before_fork() -> None:
    lock = _DEFAULT._lock
    lock.acquire()
    _held_across_fork.append(lock)


def _after_fork() -> None:
    _held_across_fork.pop().release()


if hasattr(os, "register_at_fork"):  # POSIX only, like fork itself
    os.register_at_fork(
        before=_before_fork, after_in_parent=_after_fork, after_in_child=_after_fork
    )
