"""Deterministic hash partitioning of evaluation and serving contexts.

The shard of a context must be a pure function of the context itself —
stable across interpreter runs (``PYTHONHASHSEED`` randomises the builtin
``hash``) and across the parent/worker boundary of the process transport,
whose parent and workers assign untenanted requests to tenants by it.
:func:`stable_hash` feeds a canonical byte encoding of the key through
``blake2b`` instead.

The canonical key is ``(history, objective, user)`` — the
:class:`~repro.cache.memo.PlanCache` context tuple minus the horizon.
"""

from __future__ import annotations

import hashlib
from typing import Hashable, Sequence

from repro.utils.exceptions import ConfigurationError

__all__ = ["stable_hash", "shard_index", "context_key", "partition_indices"]


def stable_hash(key: Hashable) -> int:
    """A 64-bit hash of ``key`` that is identical in every interpreter.

    The key is encoded through ``repr`` — deterministic for the nested
    tuples of ints / strings / ``None`` used as planning context keys —
    and digested with ``blake2b``.  Unlike the builtin ``hash``, the result
    does not depend on ``PYTHONHASHSEED``, so every process routes a
    context to the same shard.
    """
    digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def shard_index(key: Hashable, num_shards: int) -> int:
    """The shard owning ``key`` among ``num_shards`` hash partitions."""
    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be at least 1, got {num_shards}")
    if num_shards == 1:
        return 0
    return stable_hash(key) % num_shards


def context_key(
    history: Sequence[int], objective: "int | None", user_index: "int | None"
) -> tuple:
    """The canonical ``(history, objective, user)`` partitioning key."""
    return (
        tuple(int(item) for item in history),
        None if objective is None else int(objective),
        None if user_index is None else int(user_index),
    )


def partition_indices(
    keys: Sequence[Hashable], num_shards: int
) -> "list[list[int]]":
    """Partition positions ``0..len(keys)-1`` into ``num_shards`` index lists.

    Position ``i`` lands in shard ``shard_index(keys[i], num_shards)``;
    within a shard, positions keep their original relative order, so a
    shard's results can be scattered back deterministically.
    """
    shards: "list[list[int]]" = [[] for _ in range(num_shards)]
    for position, key in enumerate(keys):
        shards[shard_index(key, num_shards)].append(position)
    return shards
