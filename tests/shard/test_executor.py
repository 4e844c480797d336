"""Backend behaviour and configuration surface of :class:`ShardedExecutor`."""

from __future__ import annotations

import threading

import pytest

from repro.config import resolve_num_workers, resolve_vocab_shards
from repro.shard.config import fork_available, resolve_shard_backend
from repro.shard.executor import ShardedExecutor
from repro.utils.exceptions import ConfigurationError

BACKENDS = ["serial", "thread"] + (["process"] if fork_available() else [])


def double_shard(shard: int, items: list) -> list:
    return [(shard, item * 2) for item in items]


class TestConfigResolution:
    def test_defaults(self, monkeypatch):
        # Neutralise any fleet-wide forcing (the CI matrix exports
        # REPRO_NUM_WORKERS=2) — this test pins the built-in defaults.
        for var in ("REPRO_NUM_WORKERS", "REPRO_SHARD_BACKEND", "REPRO_VOCAB_SHARDS"):
            monkeypatch.delenv(var, raising=False)
        assert resolve_num_workers(None) == 1
        assert resolve_shard_backend(None, num_workers=1) == "serial"
        assert resolve_shard_backend(None, num_workers=3) == "thread"
        assert resolve_vocab_shards(None) == 1

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "serial")
        monkeypatch.setenv("REPRO_VOCAB_SHARDS", "5")
        assert resolve_num_workers(None) == 3
        assert resolve_shard_backend(None, num_workers=3) == "serial"
        assert resolve_vocab_shards(None) == 5

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "3")
        assert resolve_num_workers(2) == 2

    def test_invalid_values_raise_with_source(self, monkeypatch):
        with pytest.raises(ConfigurationError, match="num_workers"):
            resolve_num_workers(0)
        with pytest.raises(ConfigurationError, match="vocab_shards"):
            resolve_vocab_shards(-2)
        with pytest.raises(ConfigurationError, match="shard_backend"):
            resolve_shard_backend("fibers")
        monkeypatch.setenv("REPRO_NUM_WORKERS", "two")
        with pytest.raises(ConfigurationError, match="REPRO_NUM_WORKERS"):
            resolve_num_workers(None)

    def test_executor_validates_backend(self):
        with pytest.raises(ConfigurationError):
            ShardedExecutor(2, "greenlets")


class TestMapPartitioned:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("num_workers", [1, 2, 4])
    def test_results_align_with_items(self, backend, num_workers):
        executor = ShardedExecutor(num_workers, backend)
        items = list(range(23))
        keys = [((i,), i, None) for i in items]
        results = executor.map_partitioned(items, keys, double_shard)
        assert [value for _, value in results] == [i * 2 for i in items]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend):
        items = list(range(17))
        keys = [((i, i), None, i % 3) for i in items]
        serial = ShardedExecutor(3, "serial").map_partitioned(items, keys, double_shard)
        other = ShardedExecutor(3, backend).map_partitioned(items, keys, double_shard)
        assert serial == other

    def test_single_worker_runs_inline(self):
        executor = ShardedExecutor(1, "serial")
        thread_ids = []

        def record(shard: int, items: list) -> list:
            thread_ids.append(threading.get_ident())
            return items

        assert executor.map_partitioned([1, 2], ["a", "b"], record) == [1, 2]
        assert thread_ids == [threading.get_ident()]

    def test_empty_items(self):
        executor = ShardedExecutor(2, "thread")
        assert executor.map_partitioned([], [], double_shard) == []

    def test_key_count_mismatch(self):
        executor = ShardedExecutor(2, "serial")
        with pytest.raises(ConfigurationError, match="partition keys"):
            executor.map_partitioned([1, 2], ["only-one"], double_shard)

    def test_shard_result_count_mismatch(self):
        executor = ShardedExecutor(2, "serial")
        items = list(range(8))
        keys = [((i,), i, None) for i in items]
        with pytest.raises(ConfigurationError, match="results"):
            executor.map_partitioned(items, keys, lambda shard, its: its[:-1])

    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_process_backend_isolates_worker_state(self):
        """Mutations made inside fork children must not leak back."""
        executor = ShardedExecutor(2, "process")
        state = {"mutated": False}

        def mutate(shard: int, items: list) -> list:
            state["mutated"] = True
            return items

        items = list(range(6))
        keys = [((i,), None, None) for i in items]
        assert executor.map_partitioned(items, keys, mutate) == items
        assert state["mutated"] is False

    @pytest.mark.skipif(not fork_available(), reason="no fork start method")
    def test_process_backend_degrades_inline_when_other_threads_alive(self, caplog):
        """Forking with live threads could copy a mid-operation lock into
        the children in the locked state; the dispatch must degrade to
        in-thread execution (identical results) instead."""
        import logging

        executor = ShardedExecutor(2, "process")
        items = list(range(6))
        keys = [((i,), None, None) for i in items]
        state = {"mutated": False}

        def mutate(shard: int, its: list) -> list:
            state["mutated"] = True
            return its

        results = {}

        def dispatch():
            results["value"] = executor.map_partitioned(items, keys, mutate)

        worker = threading.Thread(target=dispatch)
        with caplog.at_level(logging.WARNING, logger="repro.shard.executor"):
            worker.start()
            worker.join()
        assert results["value"] == items
        # In-thread execution is observable: the parent's state mutated
        # (fork children could never write it back).
        assert state["mutated"] is True
        assert any("fork" in record.message for record in caplog.records)

    def test_process_backend_unavailable_is_config_error(self, monkeypatch):
        import repro.shard.config as shard_config

        monkeypatch.setattr(shard_config, "fork_available", lambda: False)
        with pytest.raises(ConfigurationError, match="fork"):
            shard_config.resolve_shard_backend("process")


class TestRunShards:
    def test_empty_tasks(self):
        assert ShardedExecutor(2, "thread").run_shards([], double_shard) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_task_order_preserved(self, backend):
        executor = ShardedExecutor(4, backend)
        tasks = [(shard, [shard]) for shard in range(4)]
        results = executor.run_shards(tasks, double_shard)
        assert results == [[(shard, shard * 2)] for shard in range(4)]


class TestFuturesAPI:
    """The asynchronous boundary grown for the serving subsystem."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_shards_async_matches_run_shards(self, backend):
        executor = ShardedExecutor(4, backend)
        tasks = [(shard, [shard]) for shard in range(4)]
        futures = executor.run_shards_async(tasks, double_shard)
        assert [future.result() for future in futures] == executor.run_shards(
            tasks, double_shard
        )

    def test_empty_tasks_async(self):
        assert ShardedExecutor(2, "thread").run_shards_async([], double_shard) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_submit_single_task(self, backend):
        executor = ShardedExecutor(2, backend)
        future = executor.submit(1, [3, 4], double_shard)
        assert future.result() == [(1, 6), (1, 8)]

    def test_serial_futures_come_back_resolved(self):
        executor = ShardedExecutor(2, "serial")
        futures = executor.run_shards_async([(0, [1]), (1, [2])], double_shard)
        assert all(future.done() for future in futures)

    def test_inline_exception_surfaces_at_result(self):
        executor = ShardedExecutor(1, "serial")

        def explode(shard: int, items: list):
            raise ValueError("shard blew up")

        future = executor.run_shards_async([(0, [1])], explode)[0]
        assert isinstance(future.exception(), ValueError)
        with pytest.raises(ValueError, match="blew up"):
            executor.run_shards([(0, [1])], explode)

    def test_run_shards_joins_siblings_before_raising(self):
        """A shard exception must not leave sibling shard tasks running
        detached: run_shards awaits every future, then re-raises the first
        error (the pre-futures pool's join-before-propagate semantics)."""
        import time

        executor = ShardedExecutor(2, "thread")
        state = {"finished": False}

        def tasks_fn(shard: int, _payload):
            if shard == 0:
                raise ValueError("fast failure")
            time.sleep(0.2)  # outlive the sibling's immediate failure
            state["finished"] = True
            return shard

        with pytest.raises(ValueError, match="fast failure"):
            executor.run_shards([(0, None), (1, None)], tasks_fn)
        # The slow sibling completed BEFORE run_shards returned control.
        assert state["finished"] is True

    def test_thread_futures_run_concurrently(self):
        """Two thread-backend tasks that wait on each other's event can only
        finish if the futures genuinely overlap."""
        executor = ShardedExecutor(2, "thread")
        first, second = threading.Event(), threading.Event()

        def rendezvous(shard: int, _payload):
            mine, theirs = (first, second) if shard == 0 else (second, first)
            mine.set()
            assert theirs.wait(timeout=5)
            return shard

        futures = executor.run_shards_async([(0, None), (1, None)], rendezvous)
        assert [future.result(timeout=5) for future in futures] == [0, 1]


class TestEnvForcedSharding:
    def test_executor_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
        monkeypatch.setenv("REPRO_SHARD_BACKEND", "serial")
        executor = ShardedExecutor()
        assert executor.num_workers == 2
        assert executor.backend == "serial"

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "")
        assert resolve_num_workers(None) == 1
