"""The full offline IRS evaluation protocol (§IV-B).

Steps:

1. For every test user, sample an objective item uniformly at random subject
   to the paper's two constraints: it must be new to the user and must have
   at least ``min_objective_interactions`` training interactions.
2. Ask the influential recommender under evaluation to generate an influence
   path with Algorithm 1 (maximum length ``M``).
3. Score the paths with the IRS evaluator: SR_M, IoI_M, IoR_M and log(PPL).

The same sampled objectives are reused across every framework being
compared, exactly as in the paper ("each IRS model generates influence paths
based on the same test set independently").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.base import InfluentialRecommender
from repro.data.splitting import DatasetSplit, TestInstance
from repro.evaluation.evaluator import IRSEvaluator
from repro.evaluation.metrics import (
    increase_of_interest,
    increment_of_rank,
    log_perplexity,
    success_rate,
)
from repro.shard.executor import ShardedExecutor
from repro.shard.partition import context_key
from repro.utils.exceptions import ConfigurationError
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng

__all__ = [
    "EvaluationInstance",
    "PathRecord",
    "IRSResult",
    "IRSEvaluationProtocol",
    "sample_objectives",
    "rollout_next_step",
]

_LOGGER = get_logger("evaluation.protocol")


@dataclass(frozen=True)
class EvaluationInstance:
    """A test user's history plus the sampled objective item."""

    user_index: int
    history: tuple[int, ...]
    objective: int


@dataclass(frozen=True)
class PathRecord:
    """One generated influence path together with its evaluation context."""

    user_index: int
    history: tuple[int, ...]
    objective: int
    path: tuple[int, ...]

    @property
    def reached(self) -> bool:
        """Whether the path contains the objective item."""
        return self.objective in self.path


@dataclass
class IRSResult:
    """Aggregated IRS metrics for one framework (one row of Table III/V)."""

    framework: str
    max_length: int
    success: float
    increase_of_interest: float
    increment_of_rank: float
    log_ppl: float
    records: list[PathRecord] = field(default_factory=list)

    def as_row(self) -> dict[str, float | str]:
        """Return the metrics as a flat table row."""
        return {
            "framework": self.framework,
            f"SR{self.max_length}": round(self.success, 4),
            f"IoI{self.max_length}": round(self.increase_of_interest, 4),
            f"IoR{self.max_length}": round(self.increment_of_rank, 2),
            "log(PPL)": round(self.log_ppl, 3),
        }


def sample_objectives(
    split: DatasetSplit,
    min_objective_interactions: int = 5,
    seed: "int | np.random.Generator | None" = 0,
    max_instances: int | None = None,
) -> list[EvaluationInstance]:
    """Sample one objective per test user following §IV-B1.

    Constraints: the objective is not in the user's history, and it has at
    least ``min_objective_interactions`` occurrences in the corpus.
    """
    rng = as_rng(seed)
    corpus = split.corpus
    popularity = corpus.item_popularity()
    eligible = np.flatnonzero(popularity >= min_objective_interactions)
    eligible = eligible[eligible != 0]
    if eligible.size == 0:
        raise ConfigurationError(
            "no item satisfies the objective-popularity constraint; "
            "lower min_objective_interactions"
        )

    instances: list[EvaluationInstance] = []
    test: Sequence[TestInstance] = split.test[:max_instances] if max_instances else split.test
    for instance in test:
        history = set(instance.history)
        candidates = eligible[~np.isin(eligible, list(history))]
        if candidates.size == 0:
            continue
        objective = int(rng.choice(candidates))
        instances.append(
            EvaluationInstance(
                user_index=instance.user_index,
                history=instance.history,
                objective=objective,
            )
        )
    if not instances:
        raise ConfigurationError("objective sampling produced no evaluation instances")
    return instances


def rollout_next_step(
    recommender: InfluentialRecommender,
    contexts: "Sequence[tuple[Sequence[int], int, int | None]]",
    max_length: int,
) -> list[list[int]]:
    """Drive ``next_step`` in lockstep across many serving contexts.

    ``contexts`` holds ``(history, objective, user_index)`` triples; at every
    step each still-live context asks the recommender for its next path item,
    mirroring an online serving loop where requests from many users
    interleave.  This is the ``next_step``-driven counterpart of
    ``generate_paths_batch`` and the workload behind the
    ``irs_stepwise_replanning`` benchmark: a planner with only a single
    replan slot replans from scratch at almost every call here, while the
    :class:`~repro.cache.memo.PlanCache`-backed planner plans each context
    once and serves the rest from memory.
    """
    if max_length <= 0:
        raise ConfigurationError(f"max_length must be positive, got {max_length}")
    paths: list[list[int]] = [[] for _ in contexts]
    live = set(range(len(contexts)))
    for _ in range(max_length):
        if not live:
            break
        for index in sorted(live):
            history, objective, user_index = contexts[index]
            item = recommender.next_step(
                history, objective, paths[index], user_index=user_index
            )
            if item is None:
                live.discard(index)
                continue
            paths[index].append(int(item))
            if int(item) == int(objective):
                live.discard(index)
    return paths


class IRSEvaluationProtocol:
    """Evaluate influential recommenders on a fixed set of (history, objective) pairs.

    Path generation goes through ``generate_paths_batch``; recommenders with
    plan memoisation (the beam planner's
    :class:`~repro.cache.memo.PlanCache`) are consulted per instance before
    any replanning happens, so repeated evaluations over the same sampled
    objectives reuse finished plans.

    With ``num_workers > 1`` the protocol partitions its evaluation
    instances across threads by the stable hash of their
    ``(history, objective, user)`` context
    (:class:`~repro.shard.executor.ShardedExecutor`): each thread rolls out
    its own instance partition — chunked batched rollouts in
    :meth:`generate_records`, an independent lockstep ``next_step`` loop in
    :meth:`generate_records_stepwise` — and the merged records are
    bit-identical to the serial ones (instances never interact across a
    rollout).  This is the package's one parallel path (see
    :mod:`repro.shard.executor` for what it measures); ``None`` means 1.
    """

    def __init__(
        self,
        split: DatasetSplit,
        evaluator: IRSEvaluator,
        max_length: int = 20,
        min_objective_interactions: int = 5,
        max_instances: int | None = None,
        history_window: int | None = 50,
        rollout_chunk_size: int = 64,
        num_workers: "int | None" = None,
        seed: int = 0,
    ) -> None:
        if not isinstance(rollout_chunk_size, int) or rollout_chunk_size <= 0:
            raise ConfigurationError(
                f"rollout_chunk_size must be a positive integer, got {rollout_chunk_size!r}"
            )
        self.split = split
        self.evaluator = evaluator
        self.max_length = max_length
        self.history_window = history_window
        self.rollout_chunk_size = rollout_chunk_size
        self.executor = ShardedExecutor(num_workers)
        self.num_workers = self.executor.num_workers
        self.instances = sample_objectives(
            split,
            min_objective_interactions=min_objective_interactions,
            seed=seed,
            max_instances=max_instances,
        )

    # ------------------------------------------------------------------ #
    def _history_for(self, instance: EvaluationInstance) -> list[int]:
        history = list(instance.history)
        if self.history_window and len(history) > self.history_window:
            history = history[-self.history_window :]
        return history

    def _instance_keys(self, histories: "list[list[int]]") -> list[tuple]:
        """The ``(history, objective, user)`` partition key of every instance."""
        return [
            context_key(history, instance.objective, instance.user_index)
            for history, instance in zip(histories, self.instances)
        ]

    def _rollout_batched(
        self,
        recommender: InfluentialRecommender,
        contexts: "list[tuple[list[int], int, int | None]]",
    ) -> list[list[int]]:
        """Chunked ``generate_paths_batch`` over one thread's contexts."""
        paths: list[list[int]] = []
        for start in range(0, len(contexts), self.rollout_chunk_size):
            chunk = contexts[start : start + self.rollout_chunk_size]
            paths.extend(
                recommender.generate_paths_batch(
                    [context[0] for context in chunk],
                    [context[1] for context in chunk],
                    user_indices=[context[2] for context in chunk],
                    max_length=self.max_length,
                )
            )
        return paths

    def generate_records(self, recommender: InfluentialRecommender) -> list[PathRecord]:
        """Run Algorithm 1 for every evaluation instance.

        Rollouts go through ``generate_paths_batch`` so recommenders with
        batched scoring (IRN, the beam planner) fuse all instances that share
        a step index into single transformer forwards; recommenders without
        it transparently fall back to the per-instance loop.  Instances are
        processed in chunks of ``rollout_chunk_size`` so the fused logits
        tensor (``chunk * beam_width`` rows × vocab) stays bounded however
        many test users the split has.  With ``num_workers > 1`` the
        instances first hash-partition across threads, each running its own
        chunked rollout; the merged paths are identical.
        """
        histories = [self._history_for(instance) for instance in self.instances]
        contexts = [
            (history, instance.objective, instance.user_index)
            for history, instance in zip(histories, self.instances)
        ]
        paths = self.executor.map_partitioned(
            contexts,
            self._instance_keys(histories),
            lambda shard_contexts: self._rollout_batched(recommender, shard_contexts),
        )
        return [
            PathRecord(
                user_index=instance.user_index,
                history=tuple(history),
                objective=instance.objective,
                path=tuple(path),
            )
            for instance, history, path in zip(self.instances, histories, paths)
        ]

    def generate_records_stepwise(self, recommender: InfluentialRecommender) -> list[PathRecord]:
        """Generate records by driving ``next_step`` in lockstep (serving mode).

        Unlike :meth:`generate_records` (one batched Algorithm-1 rollout per
        chunk) this interleaves single ``next_step`` requests across all
        instances, the way an online IRS would see them.  For planners whose
        serving cache covers the instance set the resulting paths match the
        per-instance dedicated serving semantics; it exists both as a serving
        entry point and as the measured workload of the
        ``irs_stepwise_replanning`` benchmark.

        ``next_step`` has no horizon argument, so a recommender that plans
        toward its own ``max_length`` (the beam planner) only yields records
        comparable to :meth:`generate_records` when that horizon equals this
        protocol's ``max_length`` — otherwise the rollout is a truncation of
        longer-horizon plans, not a shorter-horizon plan.  A mismatch is
        logged loudly rather than silently producing incomparable metrics.

        With ``num_workers > 1`` the serving contexts hash-partition across
        threads and each drives its own lockstep loop; because
        ``next_step`` is deterministic per context (caches only skip work,
        never change answers), the merged paths equal the serial lockstep's.
        """
        recommender_horizon = getattr(recommender, "max_length", None)
        if recommender_horizon is not None and recommender_horizon != self.max_length:
            _LOGGER.warning(
                "stepwise evaluation: %s plans with horizon %d but the protocol "
                "truncates at %d; records are not comparable to generate_records()",
                getattr(recommender, "name", type(recommender).__name__),
                recommender_horizon,
                self.max_length,
            )
        histories = [self._history_for(instance) for instance in self.instances]
        contexts = [
            (history, instance.objective, instance.user_index)
            for history, instance in zip(histories, self.instances)
        ]
        paths = self.executor.map_partitioned(
            contexts,
            self._instance_keys(histories),
            lambda shard_contexts: rollout_next_step(
                recommender, shard_contexts, self.max_length
            ),
        )
        return [
            PathRecord(
                user_index=instance.user_index,
                history=tuple(history),
                objective=instance.objective,
                path=tuple(path),
            )
            for instance, history, path in zip(self.instances, histories, paths)
        ]

    def score_records(self, framework: str, records: list[PathRecord]) -> IRSResult:
        """Aggregate SR / IoI / IoR / log(PPL) over generated path records."""
        return IRSResult(
            framework=framework,
            max_length=self.max_length,
            success=success_rate(records),
            increase_of_interest=increase_of_interest(records, self.evaluator),
            increment_of_rank=increment_of_rank(records, self.evaluator),
            log_ppl=log_perplexity(records, self.evaluator),
            records=records,
        )

    def evaluate(self, recommender: InfluentialRecommender, name: str | None = None) -> IRSResult:
        """Generate and score influence paths for ``recommender``."""
        framework = name or recommender.name
        _LOGGER.info("evaluating %s on %d instances", framework, len(self.instances))
        records = self.generate_records(recommender)
        return self.score_records(framework, records)

    # ------------------------------------------------------------------ #
    def stepwise_probabilities(
        self,
        records: Sequence[PathRecord],
        exclude_early_success: bool = True,
    ) -> dict[str, list[float]]:
        """Per-step averages of objective/item probability (Figure 9).

        Returns ``{"objective": [...], "item": [...]}`` where index ``k`` of
        the objective series is the average ``log P(i_t | s_h ⊕ i_<k)`` before
        step ``k`` and index ``k`` of the item series is the average
        ``log P(i_k | s_h ⊕ i_<k)`` for the item recommended at step ``k``.
        Paths that reach the objective before ``max_length`` are excluded by
        default, as in the paper.
        """
        kept = [
            record
            for record in records
            if record.path
            and not (exclude_early_success and record.reached and len(record.path) < self.max_length)
        ]
        if not kept:
            kept = [record for record in records if record.path]
        if not kept:
            raise ConfigurationError("no non-empty paths for stepwise analysis")

        max_steps = max(len(record.path) for record in kept)
        objective_sums = np.zeros(max_steps)
        item_sums = np.zeros(max_steps)
        counts = np.zeros(max_steps)
        for record in kept:
            objective_logs = self.evaluator.objective_log_probabilities(
                record.history, record.path, record.objective
            )
            item_logs = self.evaluator.path_log_probabilities(record.history, record.path)
            for step in range(len(record.path)):
                objective_sums[step] += objective_logs[step]
                item_sums[step] += item_logs[step]
                counts[step] += 1
        counts[counts == 0] = 1
        return {
            "objective": list(objective_sums / counts),
            "item": list(item_sums / counts),
        }
