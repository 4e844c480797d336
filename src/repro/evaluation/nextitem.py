"""Leave-last-item-out next-item evaluation (Tables II and IV)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.splitting import DatasetSplit
from repro.evaluation.metrics import hit_ratio_at_k, mean_reciprocal_rank
from repro.models.base import SequentialRecommender
from repro.shard.executor import ShardedExecutor
from repro.shard.partition import context_key
from repro.utils.exceptions import ConfigurationError

__all__ = ["NextItemResult", "evaluate_next_item"]


@dataclass(frozen=True)
class NextItemResult:
    """HR@K and MRR of one model on the held-out next-item task."""

    model: str
    hit_ratio: float
    mrr: float
    k: int = 20

    def as_row(self) -> dict[str, float | str]:
        """Return the result as a flat table row."""
        return {"model": self.model, f"hr@{self.k}": round(self.hit_ratio, 4), "mrr": round(self.mrr, 4)}


def evaluate_next_item(
    model: SequentialRecommender,
    split: DatasetSplit,
    k: int = 20,
    max_instances: int | None = None,
    num_workers: "int | None" = None,
) -> NextItemResult:
    """Rank every held-out target item given its user history.

    ``max_instances`` caps the number of evaluated users (useful in smoke
    tests); the paper uses all of them.  With ``num_workers > 1`` the test
    instances hash-partition across threads by their
    ``(history, target, user)`` context and each thread ranks its own
    chunked batches; ranks are position-independent, so the merged metrics
    are identical to the serial ones.  ``None`` means 1.
    """
    instances = split.test[:max_instances] if max_instances else split.test
    if not instances:
        raise ConfigurationError("the split has no test instances")
    executor = ShardedExecutor(num_workers)

    # Rank in batched chunks: one model forward per chunk for batched models
    # (IRN), a transparent scalar loop for the rest.  Chunking bounds the
    # (chunk, vocab) score matrix the batched path materialises.
    chunk_size = 256

    def rank_shard(shard_instances: list) -> list[int]:
        ranks: list[int] = []
        for start in range(0, len(shard_instances), chunk_size):
            chunk = shard_instances[start : start + chunk_size]
            ranks.extend(
                model.rank_of_batch(
                    [list(instance.history) for instance in chunk],
                    [instance.target for instance in chunk],
                    [instance.user_index for instance in chunk],
                )
            )
        return ranks

    ranks = executor.map_partitioned(
        list(instances),
        [
            context_key(instance.history, instance.target, instance.user_index)
            for instance in instances
        ],
        rank_shard,
    )
    return NextItemResult(
        model=model.name,
        hit_ratio=hit_ratio_at_k(ranks, k=k),
        mrr=mean_reciprocal_rank(ranks),
        k=k,
    )
