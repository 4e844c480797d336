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

__all__ = ["generate_influence_path", "log_softmax_rows", "mask_session_items"]


def mask_session_items(
    scores: np.ndarray,
    sequences: Sequence[Sequence[int]],
    objectives: Sequence[int],
    row_items: "np.ndarray | None" = None,
) -> np.ndarray:
    """Mask already-seen session items out of batched next-item scores, in place.

    ``scores`` is ``(batch, vocab)``; row ``b`` gets ``-inf`` at every item of
    ``sequences[b]`` except ``objectives[b]`` (the objective may always be
    re-recommended, terminating the path).  This is the vectorised equivalent
    of the per-item Python loop in Algorithm 1's no-repeat rule: one fancy
    indexed assignment instead of ``O(batch * length)`` interpreter steps.

    With ``row_items`` the scores live in *shortlist space*: ``scores`` is
    ``(batch, C)`` and column ``c`` of row ``b`` is item ``row_items[b, c]``,
    each row in non-decreasing item order (a ragged row is padded by
    repeating its last item).  Every ``(row, seen item)`` pair is then
    located by one search over the flattened rows, and the first cell
    holding the item — the real one, never a padding repeat — is masked.
    """
    lengths = [len(sequence) for sequence in sequences]
    total = sum(lengths)
    if not total:
        return scores
    batch = np.arange(scores.shape[0])
    objective_columns = np.asarray(list(objectives), dtype=np.int64)
    row_index = np.repeat(batch, lengths)
    column_index = np.fromiter(
        itertools.chain.from_iterable(sequences), dtype=np.int64, count=total
    )
    if row_items is None:
        objective_scores = scores[batch, objective_columns].copy()
        scores[row_index, column_index] = -np.inf
        scores[batch, objective_columns] = objective_scores
        return scores
    seen = column_index != objective_columns[row_index]
    row_index, column_index = row_index[seen], column_index[seen]
    # One key per cell, ``item + row * stride``: rows are sorted, so the
    # flattened keys are too.  The stride must exceed every id *searched
    # for*, not just every shortlisted one — a seen item above its row's
    # largest candidate would otherwise alias into a later row's key range.
    stride = max(int(row_items.max()), int(column_index.max(initial=0))) + 1
    keys = (row_items + batch[:, None] * stride).ravel()
    wanted = column_index + row_index * stride
    cells = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    found = keys[cells] == wanted
    scores[row_index[found], cells[found] % row_items.shape[1]] = -np.inf
    return scores


def log_softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise masked log-softmax of a float64 ``(rows, columns)`` block, in place.

    Non-finite cells (``-inf`` masks, and any ``+inf`` / NaN) are masked:
    they take no part in a row's maximum or normaliser and come out as
    ``-inf``.  A row without a single finite cell (every candidate masked
    out) comes out all ``-inf`` instead of crashing on an empty maximum.
    The one normaliser shared by the beam planner (full-vocabulary and
    shortlist-space blocks alike) and the exact-replay retrieval metrics.
    """
    row_max = np.max(scores, axis=1, initial=-np.inf)
    if not np.all(row_max < np.inf):  # a NaN or +inf cell: mask, then as usual
        scores[~np.isfinite(scores)] = -np.inf
        row_max = np.max(scores, axis=1, initial=-np.inf)
    row_max[row_max == -np.inf] = 0.0  # all-masked rows stay -inf - 0
    scores -= row_max[:, None]
    with np.errstate(divide="ignore"):
        log_norm = np.log(np.exp(scores).sum(axis=1))
    log_norm[log_norm == -np.inf] = 0.0
    scores -= log_norm[:, None]
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
