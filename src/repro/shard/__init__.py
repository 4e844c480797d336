"""Hash partitioning, thread-partitioned offline evaluation, exact top-k.

Evaluation instances partition across threads by a deterministic hash of
their ``(history, objective, user)`` context; the same hash assigns
untenanted serving requests to tenants.  Planning and serving are not
partitioned: one planner, one serving queue.

Layout
------
:mod:`~repro.shard.partition`
    Deterministic context hashing and index partitioning.
:mod:`~repro.shard.executor`
    :class:`ShardedExecutor` — the offline evaluation protocol's
    partition-run-scatter over a thread per shard (inline for one worker).
:mod:`~repro.shard.topk`
    Exact stable-order top-k (:func:`stable_topk`).
"""

from repro.shard.executor import ShardedExecutor
from repro.shard.partition import context_key, partition_indices, shard_index, stable_hash
from repro.shard.topk import stable_topk

__all__ = [
    "ShardedExecutor",
    "context_key",
    "partition_indices",
    "shard_index",
    "stable_hash",
    "stable_topk",
]
