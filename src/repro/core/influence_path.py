"""Algorithm 1 of the paper: the influence-path generation loop.

Given a user's interaction history ``s_h``, an objective item ``i_t`` and a
maximum length ``M``, repeatedly ask the influential recommender for the next
path item until the objective is recommended or the budget is exhausted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.data.padding import PAD_INDEX
from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.base import InfluentialRecommender

__all__ = ["generate_influence_path", "log_softmax_rows", "mask_session_items"]


def mask_session_items(
    scores: np.ndarray,
    seen: np.ndarray,
    objectives: "Sequence[int] | np.ndarray",
    row_items: "np.ndarray | None" = None,
) -> np.ndarray:
    """Mask already-seen session items out of batched next-item scores, in place.

    ``scores`` is ``(batch, vocab)`` and ``seen`` the ``(batch, T)`` int
    block of every row's session items, right-aligned and left-padded with
    :data:`~repro.data.padding.PAD_INDEX`
    (:func:`~repro.data.padding.pre_pad_block`).  Row ``b`` gets ``-inf``
    at every item of ``seen[b]`` except ``objectives[b]`` (the objective may
    always be re-recommended, terminating the path), and the padding item is
    masked in every row: it is never a candidate.  This is Algorithm 1's
    no-repeat rule as one fancy indexed assignment over the block.

    With ``row_items`` the scores live in *shortlist space*: ``scores`` is
    ``(batch, C)`` and column ``c`` of row ``b`` is item ``row_items[b, c]``,
    each row in non-decreasing item order (a ragged row is padded by
    repeating its last item).  Every ``(row, seen item)`` pair is then
    located by one search over the flattened rows, and the first cell
    holding the item — the real one, never a padding repeat — is masked.
    """
    batch = np.arange(scores.shape[0])
    objective_columns = np.asarray(objectives, dtype=np.int64)
    if row_items is None:
        objective_scores = scores[batch, objective_columns]
        scores[batch[:, None], seen] = -np.inf
        scores[:, PAD_INDEX] = -np.inf
        scores[batch, objective_columns] = objective_scores
        return scores
    scores[row_items == PAD_INDEX] = -np.inf
    cells = (seen != objective_columns[:, None]) & (seen != PAD_INDEX)
    row_index = np.broadcast_to(batch[:, None], seen.shape)[cells]
    column_index = seen[cells]
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
