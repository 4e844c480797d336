"""Sharded execution subsystem: worker-partitioned planning and evaluation.

The third rung of the performance ladder (batching → caching → sharding).
Evaluation instances and planning requests partition across workers by a
deterministic hash of their ``(history, objective, user)`` context; each
worker owns an independent plan-cache shard and its own decoding sessions,
so there is no cross-worker invalidation traffic (a retrain bumps
``fit_generation``, which every shard checks locally).  The item vocabulary
can additionally be column-sharded for top-k selection, so corpora can grow
past what a single fused logits sort would allow.

Layout
------
:mod:`~repro.shard.config`
    The fork probe and the backend resolver built on it (the
    ``num_workers`` / ``shard_backend`` / ``vocab_shards`` knobs themselves
    are rows of :mod:`repro.config`, with the ``REPRO_*`` overrides CI uses
    to force the parallel path across the whole test suite).
:mod:`~repro.shard.partition`
    Deterministic context hashing and index partitioning.
:mod:`~repro.shard.executor`
    :class:`ShardedExecutor` — serial / thread-pool / fork-process backends
    behind one partition-run-scatter API.
:mod:`~repro.shard.plancache`
    :class:`ShardedPlanCache` — hash-routed per-worker LRU shards with
    merged counters.
:mod:`~repro.shard.topk`
    Exact vocabulary-sharded top-k (:func:`sharded_topk`).
"""

from repro.shard.config import fork_available, resolve_shard_backend
from repro.shard.executor import ShardedExecutor
from repro.shard.partition import context_key, partition_indices, shard_index, stable_hash
from repro.shard.plancache import ShardedPlanCache, make_plan_cache
from repro.shard.topk import sharded_topk, stable_topk

__all__ = [
    "ShardedExecutor",
    "ShardedPlanCache",
    "context_key",
    "fork_available",
    "make_plan_cache",
    "partition_indices",
    "resolve_shard_backend",
    "shard_index",
    "sharded_topk",
    "stable_hash",
    "stable_topk",
]
