"""First-class approximation metrics for candidate-pruned planning.

Candidate pruning is approximate by construction; these metrics make the
approximation *measured* instead of silent:

* :func:`overlap_at_k` — how much of the exact top-k (under
  :func:`repro.shard.topk.stable_topk`'s deterministic order) the
  candidate set covers.
* :func:`path_score` — a path's planner score (length-normalised sum of
  per-step log-probabilities plus the objective bonus) computed under
  EXACT full-vocabulary scoring, whatever planner produced the path.
* :func:`plan_regret` — exact-plan score minus pruned-plan score, both
  under :func:`path_score`.  Note beam search is itself heuristic, so a
  pruned plan can occasionally *beat* the exact planner's plan (negative
  regret); the bench reports the distribution rather than clamping it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.influence_path import log_softmax_rows, mask_session_items
from repro.data.padding import pre_pad_block
from repro.shard.topk import stable_topk

__all__ = ["overlap_at_k", "path_score", "plan_regret"]


def overlap_at_k(
    exact_scores: np.ndarray, candidate_items: "np.ndarray | None", k: int
) -> float:
    """Fraction of the exact top-``k`` covered by ``candidate_items``.

    ``exact_scores`` is one full-vocabulary score row (``-inf`` allowed for
    masked items); the reference top-k uses the planner's deterministic
    (value desc, index asc) order, so tie-heavy vocabularies score the
    same set the exact planner would expand.  ``None`` candidates mean a
    full-vocabulary fallback — overlap 1.0 by definition.
    """
    row = np.asarray(exact_scores, dtype=np.float64)
    if row.ndim != 1:
        raise ValueError(f"expected one score row, got shape {row.shape}")
    if candidate_items is None:
        return 1.0
    k = min(int(k), row.size)
    if k < 1:
        return 1.0
    top, top_values = stable_topk(row[None, :], k)
    finite = np.isfinite(top_values[0])
    reference = top[0][finite]
    if reference.size == 0:
        return 1.0
    members = np.isin(reference, np.asarray(candidate_items, dtype=np.int64))
    return float(members.sum() / reference.size)


def path_score(
    backbone,
    history: Sequence[int],
    objective: int,
    path: Sequence[int],
    user_index: "int | None" = None,
    objective_bonus: float = 1.0,
) -> float:
    """Planner score of ``path`` under exact full-vocabulary scoring.

    Replays the path step by step: each step's log-probability is the
    masked log-softmax over the backbone's EXACT scores at that prefix
    (one fused batched call covers all prefixes), summed, length-
    normalised, plus ``objective_bonus`` if the path reaches the
    objective.  Because scoring is exact regardless of how the path was
    planned, pruned and exact plans are directly comparable.  Empty paths
    score ``-inf``.
    """
    path = [int(item) for item in path]
    if not path:
        return float("-inf")
    history = [int(item) for item in history]
    objective = int(objective)
    prefixes = [history + path[:step] for step in range(len(path))]
    objectives = [objective] * len(path)
    scores = np.asarray(
        backbone.score_with_objective_batch(
            prefixes, objectives, [user_index] * len(path)
        ),
        dtype=np.float64,
    ).copy()
    mask_session_items(scores, pre_pad_block(prefixes), objectives)
    log_probs = log_softmax_rows(scores)
    total = float(log_probs[np.arange(len(path)), path].sum())
    reached = objective in path
    return total / len(path) + (objective_bonus if reached else 0.0)


def plan_regret(
    backbone,
    history: Sequence[int],
    objective: int,
    exact_path: Sequence[int],
    pruned_path: Sequence[int],
    user_index: "int | None" = None,
    objective_bonus: float = 1.0,
) -> float:
    """Exact-plan score minus pruned-plan score (both scored exactly).

    ``nan`` when either plan is empty (no comparable score exists).
    """
    if not len(exact_path) or not len(pruned_path):
        return float("nan")
    exact = path_score(
        backbone, history, objective, exact_path, user_index, objective_bonus
    )
    pruned = path_score(
        backbone, history, objective, pruned_path, user_index, objective_bonus
    )
    return exact - pruned
