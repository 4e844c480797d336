"""The metrics registry: atomic snapshots, scoping, grouped updates."""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS_MS,
    MetricGroup,
    MetricsRegistry,
    get_registry,
    set_registry,
)


def test_counter_increments_and_reads():
    registry = MetricsRegistry()
    counter = registry.counter("a.hits")
    counter.inc()
    counter.inc(4)
    assert counter.value() == 5


def test_counter_factory_is_get_or_create():
    registry = MetricsRegistry()
    assert registry.counter("a.hits") is registry.counter("a.hits")


def test_gauge_set_and_set_max():
    registry = MetricsRegistry()
    gauge = registry.gauge("a.depth")
    gauge.set(3)
    gauge.set_max(2)
    assert gauge.value() == 3
    gauge.set_max(7)
    assert gauge.value() == 7
    gauge.set(1)
    assert gauge.value() == 1


def test_histogram_buckets_and_stats():
    registry = MetricsRegistry()
    histogram = registry.histogram("a.latency_ms", buckets=(1.0, 10.0))
    histogram.observe(0.5)
    histogram.observe_many([5.0, 50.0])
    snapshot = histogram.value()
    assert snapshot["buckets"] == [1.0, 10.0]
    assert snapshot["counts"] == [1, 1, 1]  # <=1, <=10, +Inf overflow
    assert snapshot["count"] == 3
    assert snapshot["sum"] == 55.5
    assert snapshot["min"] == 0.5
    assert snapshot["max"] == 50.0
    assert snapshot["mean"] == pytest.approx(55.5 / 3)


def _linear_bucket(buckets, value: float) -> int:
    """The bucket the histogram chose before it bisected: the first bound
    the value does not exceed, else the +Inf overflow."""
    for index, bound in enumerate(buckets):
        if value <= bound:
            return index
    return len(buckets)


@pytest.mark.parametrize(
    "buckets", [DEFAULT_BUCKETS_MS, (1.0,), (-2.0, 0.0, 0.5, 3.0), (1.0, 1.0, 2.0)]
)
def test_histogram_bisect_picks_the_bucket_the_linear_scan_picked(buckets):
    """Every bound, either side of it, below the first, above the last,
    the infinities and NaN (which compares false with every bound, so the
    scan sent it to the overflow — a bare ``bisect_left`` would say 0)."""
    ordered = sorted(buckets)
    values = [ordered[0] - 1.0, ordered[-1] + 1.0, 0.0, -0.0, float("inf"), float("-inf")]
    for bound in ordered:
        values += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    values.append(float("nan"))
    for value in values:
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=buckets)
        histogram.observe(value)
        counts = histogram.value()["counts"]
        assert counts.index(1) == _linear_bucket(ordered, value), value
        assert sum(counts) == 1


def test_histogram_nan_lands_in_the_overflow_through_every_entry_point():
    registry = MetricsRegistry()
    histogram = registry.histogram("h", buckets=(1.0, 2.0))
    histogram.observe(float("nan"))
    histogram.observe_many([float("nan")])
    registry.update(observe=((histogram, float("nan")),))
    assert histogram.value()["counts"] == [0, 0, 3]


def test_update_applies_every_instrument_in_one_acquisition():
    """Counters and gauges of two components and a histogram move together:
    a snapshot sees all of one update or none of it."""
    registry = MetricsRegistry()
    first = MetricGroup(registry, "a", counters=("n", "sum"), gauges=("max",))
    second = MetricGroup(registry, "b", counters=("n",))
    histogram = registry.histogram("a.ms", buckets=(1.0, 10.0))
    for value in (0.5, 4.0):
        registry.update(
            add=((first.counter("n"), 1), (first.counter("sum"), value), (second.counter("n"), 1)),
            max_=((first.gauge("max"), value),),
            observe=((histogram, 1000.0 * value),),
        )
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"a.n": 2, "a.sum": 4.5, "b.n": 2}
    assert snapshot["gauges"] == {"a.max": 4.0}
    assert snapshot["histograms"]["a.ms"]["counts"] == [0, 0, 2]
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            registry.update(add=((first.counter("n"), 1), (second.counter("n"), 1)))

    def reader():
        while not stop.is_set():
            counters = registry.snapshot()["counters"]
            if counters["a.n"] != counters["b.n"]:
                torn.append(counters)
                return

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    threads[1].join(timeout=0.5)
    stop.set()
    for thread in threads:
        thread.join()
    assert torn == []


def test_histogram_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS_MS) == sorted(DEFAULT_BUCKETS_MS)


def test_name_collision_across_instrument_types_raises():
    registry = MetricsRegistry()
    registry.counter("a.thing")
    with pytest.raises(ValueError, match="different.*instrument type"):
        registry.gauge("a.thing")
    with pytest.raises(ValueError, match="different.*instrument type"):
        registry.histogram("a.thing")


def test_scope_indices_are_monotonic_per_prefix():
    registry = MetricsRegistry()
    assert registry.scope("serve.loop") == "serve.loop.0"
    assert registry.scope("serve.loop") == "serve.loop.1"
    assert registry.scope("cache.plan") == "cache.plan.0"


def test_snapshot_is_shaped_and_prefix_filtered():
    registry = MetricsRegistry()
    registry.counter("a.x.hits").inc(2)
    registry.counter("b.hits").inc(9)
    registry.gauge("a.x.depth").set(4)
    registry.histogram("a.x.lat", buckets=(1.0,)).observe(0.5)
    full = registry.snapshot()
    assert set(full) == {"counters", "gauges", "histograms"}
    assert full["counters"] == {"a.x.hits": 2, "b.hits": 9}
    scoped = registry.snapshot("a.x")
    assert scoped["counters"] == {"a.x.hits": 2}
    assert scoped["gauges"] == {"a.x.depth": 4}
    assert list(scoped["histograms"]) == ["a.x.lat"]
    # Prefix matching is path-segment aware: "a.x" must not match "a.xy".
    registry.counter("a.xy.hits").inc()
    assert "a.xy.hits" not in registry.snapshot("a.x")["counters"]


def test_registry_reset_zeroes_only_the_prefix():
    registry = MetricsRegistry()
    registry.counter("a.hits").inc(5)
    registry.counter("b.hits").inc(7)
    registry.reset("a")
    assert registry.counter("a.hits").value() == 0
    assert registry.counter("b.hits").value() == 7


def test_group_record_applies_all_fields():
    registry = MetricsRegistry()
    group = MetricGroup(
        registry, "q", counters=("enqueued", "depth_sum"), gauges=("depth", "depth_max")
    )
    group.record(add={"enqueued": 1, "depth_sum": 3}, max_={"depth_max": 3}, set_={"depth": 3})
    group.record(add={"enqueued": 1, "depth_sum": 1}, max_={"depth_max": 1}, set_={"depth": 1})
    assert group.values() == {"enqueued": 2, "depth_sum": 4, "depth": 1, "depth_max": 3}
    assert group.value("enqueued") == 2
    assert group.value("depth_max") == 3


def test_group_record_tolerates_none_sections():
    registry = MetricsRegistry()
    group = MetricGroup(registry, "g", counters=("n",), gauges=("v",))
    group.record(add=None, set_={"v": 2})
    group.record(add={"n": 1})
    assert group.values() == {"n": 1, "v": 2}


def test_group_reset_zeroes_its_fields_only():
    registry = MetricsRegistry()
    group = MetricGroup(registry, "g", counters=("n",))
    other = registry.counter("other.n")
    other.inc(3)
    group.record(add={"n": 5})
    group.reset()
    assert group.value("n") == 0
    assert other.value() == 3


def test_group_updates_are_atomic_under_contention():
    """A snapshot can never observe a torn multi-field update."""
    registry = MetricsRegistry()
    group = MetricGroup(registry, "g", counters=("a", "b"))
    stop = threading.Event()
    torn = []

    def writer():
        while not stop.is_set():
            group.record(add={"a": 1, "b": 1})

    def reader():
        while not stop.is_set():
            snapshot = registry.snapshot("g")["counters"]
            if snapshot["g.a"] != snapshot["g.b"]:
                torn.append(snapshot)
                return

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    threads[1].join(timeout=0.5)
    stop.set()
    for thread in threads:
        thread.join()
    assert torn == []


def test_concurrent_increments_are_exact():
    registry = MetricsRegistry()
    group = MetricGroup(registry, "g", counters=("n",))
    rounds = 500

    def hammer():
        for _ in range(rounds):
            group.record(add={"n": 1})

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert group.value("n") == 4 * rounds


def test_set_registry_swaps_the_default():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    try:
        assert get_registry() is fresh
    finally:
        set_registry(previous)
    assert get_registry() is previous


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_can_use_instruments_it_inherited():
    """A child keeps its parent's locks but only the forking thread: were the
    default registry's lock held by another thread at the instant of the fork,
    the child's first touch of an inherited instrument would hang for good (a
    worker process reading a fitted planner's cache counters).  The forking
    thread holds that lock across the fork instead."""
    group = MetricGroup(get_registry(), get_registry().scope("test.fork"), counters=("n",))
    stop = threading.Event()

    def hammer():  # holds the registry lock most of the time
        while not stop.is_set():
            group.record(add={"n": 1})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-record, often
    hammers = [threading.Thread(target=hammer) for _ in range(3)]
    for thread in hammers:
        thread.start()
    try:
        hung = 0
        for _ in range(60):
            pid = os.fork()
            if pid == 0:  # the child: only this thread exists here
                group.record(add={"n": 1})
                os._exit(0 if group.value("n") > 0 else 1)
            deadline = time.perf_counter() + 5.0
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.perf_counter() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    hung += 1
                    break
                time.sleep(0.001)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for thread in hammers:
            thread.join(timeout=5.0)
    assert hung == 0
    assert not any(thread.is_alive() for thread in hammers)
