"""Thread-partitioned offline evaluation.

:class:`ShardedExecutor` is the one parallel path of the package: the
offline evaluation protocol's rollouts
(:class:`~repro.evaluation.protocol.IRSEvaluationProtocol`) and the
next-item ranking (:func:`~repro.evaluation.nextitem.evaluate_next_item`)
partition their instances across ``num_workers`` hash shards, run one shard
per thread and scatter the results back into the caller's order.  Shard
functions only read the fitted model and write per-shard state, so the
merged results are bit-identical to one inline call.

Why threads and only here: NumPy releases the GIL inside its kernels, and a
rollout over a whole shard of instances is long enough for that to pay —
``generate_records`` over 120 contexts on the e2e small model reads 1.26–1.37 s
serial against 0.80–0.89 s on 2 threads (2 vCPUs).  Fork processes read no
better (0.79–0.81 s), partitioning without threads buys nothing (1.33 s), and
the same threads inside serving and planning made every in-process e2e
workload slower (0.42x–0.73x), so nothing else uses them.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Hashable, Sequence, TypeVar

from repro.config import resolve_num_workers
from repro.shard.partition import partition_indices
from repro.utils.exceptions import ConfigurationError

__all__ = ["ShardedExecutor"]

T = TypeVar("T")
R = TypeVar("R")


class ShardedExecutor:
    """Partition work across hash shards; one thread per non-empty shard."""

    def __init__(self, num_workers: "int | None" = None) -> None:
        self.num_workers = resolve_num_workers(num_workers)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShardedExecutor(num_workers={self.num_workers})"

    def map_partitioned(
        self,
        items: "Sequence[T]",
        keys: "Sequence[Hashable]",
        fn: "Callable[[list[T]], Sequence[R]]",
    ) -> "list[R]":
        """Partition ``items`` by stable key hash, run ``fn`` per shard, scatter back.

        ``fn(shard_items)`` must return one result per shard item, in
        shard-item order; the merged list is aligned with ``items``.  With
        one worker this is a single inline ``fn(items)`` call.  With more,
        every shard's thread is joined before the first shard error
        re-raises: nothing from a failed call may still be running once
        control returns.
        """
        if len(items) != len(keys):
            raise ConfigurationError(
                f"got {len(keys)} partition keys for {len(items)} work items"
            )
        if not items:
            return []
        if self.num_workers == 1:
            return list(fn(list(items)))
        shards = [indices for indices in partition_indices(keys, self.num_workers) if indices]
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            futures = [pool.submit(fn, [items[i] for i in indices]) for indices in shards]
        # Leaving the pool joined every thread: a shard error re-raises from
        # its future's result() with nothing still running.
        results: "list[R | None]" = [None] * len(items)
        for indices, future in zip(shards, futures):
            returned = future.result()
            if len(returned) != len(indices):
                raise ConfigurationError(
                    f"a shard returned {len(returned)} results for {len(indices)} work items"
                )
            for position, result in zip(indices, returned):
                results[position] = result
        return results  # type: ignore[return-value]
