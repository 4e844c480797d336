"""Worker-partitioned execution of planning and evaluation requests.

:class:`ShardedExecutor` owns the fan-out mechanics shared by every sharded
entry point (:meth:`~repro.core.beam.BeamSearchPlanner.plan_paths_batch`,
the :class:`~repro.evaluation.protocol.IRSEvaluationProtocol` rollouts,
:func:`~repro.evaluation.nextitem.evaluate_next_item`): partition work items
across ``num_workers`` hash shards, run one shard function per non-empty
shard on the configured backend, and scatter results back into the
caller's original order.  The shard functions are pure with respect to
shared planner state — workers read the (fitted, frozen) backbone and write
only per-shard state — so every backend produces bit-identical results:

* ``serial`` — shards run one after another in the calling thread.  This
  is the parity reference and the ``num_workers=1`` fast path (no pool is
  ever created).
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor`; NumPy
  releases the GIL inside BLAS kernels, so independent shard batches
  genuinely overlap on multi-core machines.
* ``process`` — a fork-based :class:`multiprocessing.pool.Pool` created
  per dispatch.  Fork children inherit the fitted model without pickling
  it; only the (shard, payload) tuples and the results cross the process
  boundary.  Worker-side cache mutations die with the children — exactly
  the independent-shard semantics the cache design calls for — so shard
  functions return any counters the caller wants to merge.

Asynchronous boundary
---------------------
:meth:`ShardedExecutor.run_shards_async` and :meth:`ShardedExecutor.submit`
expose the same dispatch as :class:`concurrent.futures.Future` values.
:meth:`run_shards` is now a join-then-raise gather over
:meth:`run_shards_async`, so every synchronous client (the beam planner,
the evaluation protocol) routes through the futures API unchanged in
results, and asynchronous clients can overlap shard dispatches with other
work.  (The serving subsystem, :mod:`repro.serve`, sits a level higher: it
queues requests per shard and drains them into the planner, which fans its
replans out through this executor.)
Futures resolve per backend: ``serial`` tasks (and single-task dispatches)
run inline and come back already resolved; ``thread`` tasks run on a pool
that shuts down as its futures complete; the fork dispatch is inherently a
barrier (``starmap``), so ``process`` futures are resolved by the time the
call returns — identical results, no pending state to track.
"""

from __future__ import annotations

import logging
import multiprocessing
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Hashable, Sequence, TypeVar

from repro.config import VALID_BACKENDS, resolve_num_workers
from repro.obs.trace import current_sink
from repro.shard.config import resolve_shard_backend
from repro.shard.partition import partition_indices
from repro.utils.exceptions import ConfigurationError, StaleGenerationError

__all__ = ["ShardedExecutor"]

logger = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")

# The fork backend passes the shard function to children through process
# inheritance (a closure over a fitted model is not picklable, the forked
# address space already holds it).  The module global is the hand-off point;
# the lock serialises concurrent fork dispatches so one dispatch's function
# can never leak into another's children.
_FORK_FN: "Callable | None" = None
_FORK_LOCK = threading.Lock()


def _fork_invoke(shard: int, payload):
    return _FORK_FN(shard, payload)  # type: ignore[misc]


class ShardedExecutor:
    """Partition work across hash shards and run them on a pluggable backend."""

    def __init__(
        self, num_workers: "int | None" = None, backend: "str | None" = None
    ) -> None:
        self.num_workers = resolve_num_workers(num_workers)
        self.backend = resolve_shard_backend(backend, num_workers=self.num_workers)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShardedExecutor(num_workers={self.num_workers}, backend='{self.backend}')"

    # ------------------------------------------------------------------ #
    def run_shards(
        self,
        tasks: "Sequence[tuple[int, T]]",
        fn: "Callable[[int, T], R]",
        generation_guard: "Callable[[], object] | None" = None,
    ) -> "list[R]":
        """Run ``fn(shard, payload)`` for every task, parallel per backend.

        Results come back in task order.  With one task (or the serial
        backend) no pool is created and ``fn`` runs in the calling thread.
        Implemented as a gather over :meth:`run_shards_async`, so the
        synchronous and futures-based entry points can never disagree.

        On a shard exception every other shard task is still awaited before
        the first error re-raises — the pre-futures ``with`` pool had
        join-before-propagate semantics, and callers rely on them: nothing
        from a failed dispatch may still be mutating shared caches or
        counters once ``run_shards`` returns control.

        ``generation_guard`` is the replicated-serving rung's torn-dispatch
        check: a zero-arg callable (in practice reading the backbone's
        ``fit_generation``) snapshotted before dispatch and re-read after
        the join.  A mismatch means the model changed while shards were in
        flight — some shard results would reflect the old weights and some
        the new — so the whole dispatch raises
        :class:`~repro.utils.exceptions.StaleGenerationError` instead of
        returning a torn result set.  The stale check takes precedence over
        a shard error: a mid-dispatch retrain is the likeliest cause of
        both.
        """
        expected = generation_guard() if generation_guard is not None else None
        futures = self.run_shards_async(tasks, fn)
        results: "list[R]" = []
        first_error: "BaseException | None" = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised after the join
                if first_error is None:
                    first_error = exc
        if generation_guard is not None:
            observed = generation_guard()
            if observed != expected:
                logger.warning(
                    "generation guard tripped mid-dispatch: %r -> %r across %d shard(s)",
                    expected,
                    observed,
                    len(tasks),
                )
                raise StaleGenerationError(
                    f"generation changed from {expected!r} to {observed!r} during a "
                    f"fused {len(tasks)}-shard dispatch; the micro-batch would mix "
                    f"generations, so no result is returned"
                )
        if first_error is not None:
            raise first_error
        return results

    def run_shards_async(
        self, tasks: "Sequence[tuple[int, T]]", fn: "Callable[[int, T], R]"
    ) -> "list[Future[R]]":
        """Dispatch every task and return one :class:`Future` per task.

        Futures are in task order.  ``serial`` tasks and single-task
        dispatches run inline in the calling thread and come back already
        resolved (an exception is captured into the future, surfacing at
        ``result()`` exactly like a pooled task's).  ``thread`` tasks return
        genuinely pending futures; the pool stops accepting work immediately
        but keeps running until its futures complete.  The fork ``process``
        dispatch is a synchronous barrier, so its futures are resolved on
        return.
        """
        if not tasks:
            return []
        if self.backend == "thread" and len(tasks) > 1:
            pool = ThreadPoolExecutor(max_workers=len(tasks))
            futures: "list[Future[R]]" = []
            try:
                for shard, payload in tasks:
                    futures.append(pool.submit(fn, shard, payload))
            except BaseException:
                # pool.submit itself failed mid-batch (e.g. thread
                # exhaustion): join what was already dispatched so the
                # join-before-propagate contract holds even here.
                for future in futures:
                    future.exception()
                raise
            finally:
                pool.shutdown(wait=False)
            return futures
        if self.backend == "process" and len(tasks) > 1:
            return self._resolved_fork_futures(tasks, fn)
        if self.backend not in VALID_BACKENDS:  # pragma: no cover - ctor validates
            raise ConfigurationError(f"unknown shard backend '{self.backend}'")
        return [self._inline_future(fn, shard, payload) for shard, payload in tasks]

    def submit(
        self, shard: int, payload: T, fn: "Callable[[int, T], R]"
    ) -> "Future[R]":
        """One-task future: ``fn(shard, payload)`` on this executor's backend.

        On the ``thread`` backend the task runs on its own worker thread (a
        single-task pool that shuts down with the future); the ``serial``
        backend and the fork barrier return an already-resolved future.
        """
        if self.backend == "thread":
            pool = ThreadPoolExecutor(max_workers=1)
            try:
                return pool.submit(fn, shard, payload)
            finally:
                pool.shutdown(wait=False)
        return self.run_shards_async([(shard, payload)], fn)[0]

    @staticmethod
    def _inline_future(
        fn: "Callable[[int, T], R]", shard: int, payload: T
    ) -> "Future[R]":
        future: "Future[R]" = Future()
        try:
            future.set_result(fn(shard, payload))
        except BaseException as exc:  # noqa: BLE001 - captured into the future
            future.set_exception(exc)
        return future

    def _resolved_fork_futures(
        self, tasks: "Sequence[tuple[int, T]]", fn: "Callable[[int, T], R]"
    ) -> "list[Future[R]]":
        futures: "list[Future[R]]" = [Future() for _ in tasks]
        try:
            results = self._run_fork(tasks, fn)
        except BaseException as exc:  # noqa: BLE001 - captured into the futures
            for future in futures:
                future.set_exception(exc)
        else:
            for future, result in zip(futures, results):
                future.set_result(result)
        return futures

    def _run_fork(
        self, tasks: "Sequence[tuple[int, T]]", fn: "Callable[[int, T], R]"
    ) -> "list[R]":
        # Forking while other threads are alive copies any lock one of them
        # holds mid-operation (a plan-cache RLock, the decode-stats lock)
        # into the children in the LOCKED state, with no owner to ever
        # release it — the children would deadlock on first use.  The
        # realistic path here is nesting (a process-backend planner inside a
        # thread-backend protocol), so when the process is not
        # single-threaded the dispatch degrades to in-thread execution:
        # results are bit-identical by the sharding contract, only the
        # parallelism is lost, and the log says why.
        if threading.active_count() > 1:
            logger.warning(
                "process shard backend: %d other thread(s) alive at fork time; "
                "running %d shard(s) in-thread instead (results are identical)",
                threading.active_count() - 1,
                len(tasks),
            )
            return [fn(shard, payload) for shard, payload in tasks]
        global _FORK_FN
        context = multiprocessing.get_context("fork")
        with _FORK_LOCK:
            previous = _FORK_FN
            _FORK_FN = fn
            try:
                with context.Pool(processes=min(self.num_workers, len(tasks))) as pool:
                    return pool.starmap(_fork_invoke, list(tasks))
            finally:
                _FORK_FN = previous

    # ------------------------------------------------------------------ #
    def map_partitioned(
        self,
        items: "Sequence[T]",
        keys: "Sequence[Hashable]",
        fn: "Callable[[int, list[T]], Sequence[R]]",
        generation_guard: "Callable[[], object] | None" = None,
    ) -> "list[R]":
        """Partition ``items`` by stable key hash, run shards, scatter back.

        ``fn(shard, shard_items)`` must return one result per shard item, in
        shard-item order; the merged list is aligned with ``items``.  With
        one worker this degenerates to a single direct ``fn`` call.
        ``generation_guard`` is forwarded to :meth:`run_shards` (and applied
        to the single-worker fast path too), so a partitioned dispatch can
        never scatter back results computed under two model generations.
        """
        if len(items) != len(keys):
            raise ConfigurationError(
                f"got {len(keys)} partition keys for {len(items)} work items"
            )
        if not items:
            return []
        if self.num_workers == 1:
            expected = generation_guard() if generation_guard is not None else None
            results_inline = list(fn(0, list(items)))
            if generation_guard is not None:
                observed = generation_guard()
                if observed != expected:
                    logger.warning(
                        "generation guard tripped mid-dispatch: %r -> %r "
                        "(single-worker, %d item(s))",
                        expected,
                        observed,
                        len(items),
                    )
                    raise StaleGenerationError(
                        f"generation changed from {expected!r} to {observed!r} "
                        f"during a single-worker dispatch of {len(items)} item(s)"
                    )
            return results_inline
        # A traced serving drain above installed a batch sink: record the
        # partition step (scatter) and the result merge (gather) as
        # batch-wide spans.  One thread-local read when untraced.
        sink = current_sink()
        scatter_started = time.perf_counter() if sink is not None else 0.0
        shards = partition_indices(keys, self.num_workers)
        tasks = [
            (shard, [items[i] for i in indices])
            for shard, indices in enumerate(shards)
            if indices
        ]
        if sink is not None:
            sink.batch_span(
                "shard.scatter",
                scatter_started,
                time.perf_counter(),
                items=len(items),
                shards=len(tasks),
                backend=self.backend,
            )
        shard_results = self.run_shards(tasks, fn, generation_guard=generation_guard)
        gather_started = time.perf_counter() if sink is not None else 0.0
        results: "list[R | None]" = [None] * len(items)
        for (shard, shard_items), returned in zip(tasks, shard_results):
            indices = shards[shard]
            if len(returned) != len(indices):
                raise ConfigurationError(
                    f"shard {shard} returned {len(returned)} results "
                    f"for {len(indices)} work items"
                )
            for position, result in zip(indices, returned):
                results[position] = result
        if sink is not None:
            sink.batch_span(
                "shard.gather",
                gather_started,
                time.perf_counter(),
                items=len(items),
                shards=len(tasks),
                backend=self.backend,
            )
        return results  # type: ignore[return-value]
