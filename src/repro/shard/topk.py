"""Exact top-k selection in stable-argsort order.

:func:`stable_topk` is the beam planner's per-row candidate selection: the
k winners of every row ordered by (value desc, index asc) — the
stable-``argsort`` order the pre-batching scalar implementation produced.
Two exact selections, by ``k``:

* up to :data:`ARGMAX_ROUNDS` winners (the beam's branch factors), ``k``
  rounds of a row-wise ``argmax`` — the first maximum, hence the lowest
  index among ties — each masking its winners before the next;
* more, ``argpartition`` over the columns, the winners sorted, and an exact
  stable-sort repair for rows whose k-th boundary value ties with
  unselected columns (``argpartition`` gives no guarantee about WHICH index
  wins such a tie).

A row with a non-finite winner goes through the exact stable sort in the
first selection; in the second, a row whose boundary is ``-inf`` (fewer
than k finite candidates) pads its selection with arbitrary masked columns.
Consumers filter non-finite values (the beam planner drops them).
"""

from __future__ import annotations

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = ["stable_topk", "ARGMAX_ROUNDS"]

#: Up to this many winners per row, ``k`` row-wise ``argmax`` passes beat one
#: ``argpartition`` (about 1.7 us per row) at every shape measured, from
#: 1 x 2 000 to 256 x 20 000 blocks; at 16 winners they no longer do.
ARGMAX_ROUNDS = 8


def stable_topk(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of ``(rows, vocab)`` scores in stable-argsort order.

    Returns ``(indices, values)``, both ``(rows, k)``, ordered by value
    descending with ties broken by ascending column index — identical to
    ``np.argsort(-row, kind="stable")[:k]`` for every row whose selected
    values are finite.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ConfigurationError(f"expected a (rows, vocab) array, got shape {values.shape}")
    if not 1 <= k <= values.shape[1]:
        raise ConfigurationError(
            f"top-k needs 1 <= k <= vocab, got k={k} for vocab={values.shape[1]}"
        )
    if k <= ARGMAX_ROUNDS:
        rows = np.arange(values.shape[0])
        remaining = values.copy()
        top = np.empty((values.shape[0], k), dtype=np.int64)
        top_values = np.empty((values.shape[0], k), dtype=values.dtype)
        for rank in range(k):
            top[:, rank] = winners = remaining.argmax(axis=1)
            top_values[:, rank] = remaining[rows, winners]
            remaining[rows, winners] = -np.inf
        # A NaN / +inf winner, or a row with fewer than k finite cells (whose
        # masked winners can repeat a column), is sorted exactly.
        inexact = ~np.isfinite(top_values).all(axis=1)
    else:
        top = np.argpartition(-values, k - 1, axis=1)[:, :k]
        top_values = np.take_along_axis(values, top, axis=1)
        # Stable-argsort order among the k winners: value desc, index asc.
        order = np.lexsort((top, -top_values), axis=1)
        top = np.take_along_axis(top, order, axis=1)
        top_values = np.take_along_axis(top_values, order, axis=1)
        # A finite boundary value that also occurs outside the selection
        # marks a tie argpartition may have broken the wrong way.
        boundary = top_values[:, -1:]
        inexact = np.isfinite(boundary[:, 0]) & (
            (values == boundary).sum(axis=1) > (top_values == boundary).sum(axis=1)
        )
    for row in np.flatnonzero(inexact):
        exact = np.argsort(-values[row], kind="stable")[:k]
        top[row] = exact
        top_values[row] = values[row][exact]
    return top, top_values
