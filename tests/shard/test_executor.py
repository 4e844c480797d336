"""Behaviour and configuration surface of :class:`ShardedExecutor`."""

from __future__ import annotations

import threading
import time

import pytest

from repro.config import resolve_num_workers
from repro.shard.executor import ShardedExecutor
from repro.utils.exceptions import ConfigurationError


def double(items: list) -> list:
    return [item * 2 for item in items]


class TestConfigResolution:
    def test_default_is_one_worker(self):
        assert resolve_num_workers(None) == 1
        assert ShardedExecutor().num_workers == 1

    def test_explicit_value(self):
        assert resolve_num_workers(2) == 2

    def test_the_environment_is_not_read(self, monkeypatch):
        """A CLI-only knob: the thread count is an evaluation argument."""
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        assert resolve_num_workers(None) == 1

    def test_invalid_values_raise(self):
        with pytest.raises(ConfigurationError, match="num_workers"):
            resolve_num_workers(0)
        with pytest.raises(ConfigurationError, match="num_workers"):
            ShardedExecutor("two")


class TestMapPartitioned:
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_results_align_with_items(self, num_workers):
        executor = ShardedExecutor(num_workers)
        items = list(range(23))
        keys = [((i,), i, None) for i in items]
        assert executor.map_partitioned(items, keys, double) == [i * 2 for i in items]

    def test_thread_counts_agree(self):
        items = list(range(17))
        keys = [((i, i), None, i % 3) for i in items]
        inline = ShardedExecutor(1).map_partitioned(items, keys, double)
        assert ShardedExecutor(3).map_partitioned(items, keys, double) == inline

    def test_single_worker_runs_inline(self):
        thread_ids = []

        def record(items: list) -> list:
            thread_ids.append(threading.get_ident())
            return items

        assert ShardedExecutor(1).map_partitioned([1, 2], ["a", "b"], record) == [1, 2]
        assert thread_ids == [threading.get_ident()]

    def test_shards_run_on_concurrent_threads(self):
        """Two shards that wait on each other's event can only finish if
        their threads genuinely overlap."""
        first, second = threading.Event(), threading.Event()
        items = list(range(16))
        keys = [((i,), i, None) for i in items]
        calls = []
        lock = threading.Lock()

        def rendezvous(shard_items: list) -> list:
            with lock:
                mine, theirs = (first, second) if not calls else (second, first)
                calls.append(len(shard_items))
            mine.set()
            assert theirs.wait(timeout=5)
            return shard_items

        assert ShardedExecutor(2).map_partitioned(items, keys, rendezvous) == items
        assert len(calls) == 2

    @pytest.mark.parametrize("num_workers", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("num_items", [1, 2, 5, 23])
    def test_shards_cover_every_item_once_in_input_order(self, num_items, num_workers):
        """At most ``num_workers`` calls, none empty (so fewer items than
        workers means fewer threads), every item in exactly one call, and
        each call's items in their input order — which the scatter relies on."""
        items = [f"item-{i}" for i in range(num_items)]
        keys = [((i, i + 1), i % 3, None) for i in range(num_items)]
        calls = []
        lock = threading.Lock()

        def record(shard_items: list) -> list:
            with lock:
                calls.append(list(shard_items))
            return [item.upper() for item in shard_items]

        merged = ShardedExecutor(num_workers).map_partitioned(items, keys, record)
        assert merged == [item.upper() for item in items]
        assert 1 <= len(calls) <= min(num_workers, num_items)
        assert all(calls)
        assert sorted(item for call in calls for item in call) == sorted(items)
        for call in calls:
            assert call == sorted(call, key=items.index)

    def test_a_key_decides_its_shard_wherever_it_sits(self):
        """Partitioning reads keys, not positions: the same keys land in the
        same shard when the item list is reordered."""
        keys = [((i,), i, None) for i in range(12)]

        def shard_of(order: list) -> dict:
            seen = {}

            def record(shard_items: list) -> list:
                for item in shard_items:
                    seen[item] = frozenset(shard_items)
                return shard_items

            ShardedExecutor(3).map_partitioned(order, [keys[i] for i in order], record)
            return seen

        forward = shard_of(list(range(12)))
        backward = shard_of(list(reversed(range(12))))
        assert forward == backward

    def test_inline_error_propagates(self):
        def fail(shard_items: list) -> list:
            raise ValueError("inline failure")

        with pytest.raises(ValueError, match="inline failure"):
            ShardedExecutor(1).map_partitioned([1, 2], ["a", "b"], fail)

    def test_empty_items(self):
        assert ShardedExecutor(2).map_partitioned([], [], double) == []

    def test_key_count_mismatch(self):
        with pytest.raises(ConfigurationError, match="partition keys"):
            ShardedExecutor(2).map_partitioned([1, 2], ["only-one"], double)

    def test_shard_result_count_mismatch(self):
        items = list(range(8))
        keys = [((i,), i, None) for i in items]
        with pytest.raises(ConfigurationError, match="results"):
            ShardedExecutor(2).map_partitioned(items, keys, lambda its: its[:-1])

    def test_every_thread_is_joined_before_an_error_raises(self):
        """A shard exception must not leave sibling shards running detached:
        every thread finishes before the first error re-raises."""
        items = list(range(16))
        keys = [((i,), i, None) for i in items]
        state = {"calls": 0, "finished": False}
        lock = threading.Lock()

        def fail_fast_or_sleep(shard_items: list) -> list:
            with lock:
                state["calls"] += 1
                first = state["calls"] == 1
            if first:
                raise ValueError("fast failure")
            time.sleep(0.2)  # outlive the sibling's immediate failure
            state["finished"] = True
            return shard_items

        with pytest.raises(ValueError, match="fast failure"):
            ShardedExecutor(2).map_partitioned(items, keys, fail_fast_or_sleep)
        assert state["finished"] is True
