"""Algorithm 1 of the paper: the influence-path generation loop.

Given a user's interaction history ``s_h``, an objective item ``i_t`` and a
maximum length ``M``, repeatedly ask the influential recommender for the next
path item until the objective is recommended or the budget is exhausted.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import InfluentialRecommender

__all__ = ["generate_influence_path", "mask_session_items"]


def mask_session_items(
    scores: np.ndarray,
    sequences: Sequence[Sequence[int]],
    objectives: Sequence[int],
) -> np.ndarray:
    """Mask already-seen session items out of batched next-item scores, in place.

    ``scores`` is ``(batch, vocab)``; row ``b`` gets ``-inf`` at every item of
    ``sequences[b]`` except ``objectives[b]`` (the objective may always be
    re-recommended, terminating the path).  This is the vectorised equivalent
    of the per-item Python loop in Algorithm 1's no-repeat rule: one fancy
    indexed assignment instead of ``O(batch * length)`` interpreter steps.
    """
    lengths = [len(sequence) for sequence in sequences]
    total = sum(lengths)
    batch = np.arange(scores.shape[0])
    objective_columns = np.asarray(list(objectives), dtype=np.int64)
    if total:
        row_index = np.repeat(batch, lengths)
        column_index = np.fromiter(
            itertools.chain.from_iterable(sequences), dtype=np.int64, count=total
        )
        objective_scores = scores[batch, objective_columns].copy()
        scores[row_index, column_index] = -np.inf
        scores[batch, objective_columns] = objective_scores
    return scores


def generate_influence_path(
    recommender: "InfluentialRecommender",
    history: Sequence[int],
    objective: int,
    user_index: int | None = None,
    max_length: int = 20,
) -> list[int]:
    """Generate an influence path with ``recommender`` (Algorithm 1).

    Parameters
    ----------
    recommender:
        Any fitted :class:`~repro.core.base.InfluentialRecommender`.
    history:
        The user's interaction history ``s_h`` (item indices).
    objective:
        The objective item ``i_t``.
    user_index:
        Optional user index for personalised recommenders (IRN, BPR, ...).
    max_length:
        The maximum path length ``M``.

    Returns
    -------
    list[int]
        The influence path ``s_p``.  If the objective was reached it is the
        final element; otherwise the path has exactly ``max_length`` items
        (or fewer if the recommender could not propose more items).
    """
    if max_length <= 0:
        raise ConfigurationError(f"max_length must be positive, got {max_length}")
    history = list(history)
    path: list[int] = []
    while len(path) < max_length:
        item = recommender.next_step(history, objective, path, user_index=user_index)
        if item is None:
            break
        path.append(int(item))
        if item == objective:
            break
    return path
