"""Exact top-k selection in stable-argsort order.

:func:`stable_topk` is the beam planner's per-row candidate selection:
``argpartition`` over the columns, the k winners ordered by (value desc,
index asc) — the stable-``argsort`` order the pre-batching scalar
implementation produced — and an exact stable-sort repair for rows whose
k-th boundary value ties with unselected columns (``argpartition`` gives no
guarantee about WHICH index wins such a tie).  A row whose boundary is
``-inf`` (fewer than k finite candidates) pads its selection with arbitrary
masked columns; consumers filter non-finite values (the beam planner drops
them before building hypotheses).
"""

from __future__ import annotations

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = ["stable_topk"]


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
    top = np.argpartition(-values, k - 1, axis=1)[:, :k]
    top_values = np.take_along_axis(values, top, axis=1)
    # Stable-argsort order among the k winners: value desc, index asc.
    order = np.lexsort((top, -top_values), axis=1)
    top = np.take_along_axis(top, order, axis=1)
    top_values = np.take_along_axis(top_values, order, axis=1)
    # argpartition gives no guarantee about WHICH index wins a tie at the
    # k-th boundary; the stable argsort kept the lowest index.  A finite
    # boundary value that also occurs outside the selection marks such a
    # tie — repair those (rare) rows with an exact stable sort.
    boundary = top_values[:, -1]
    finite_boundary = np.isfinite(boundary)
    if finite_boundary.any():
        selected_ties = (top_values == boundary[:, None]).sum(axis=1)
        total_ties = (values == boundary[:, None]).sum(axis=1)
        for row in np.flatnonzero(finite_boundary & (total_ties > selected_ties)):
            exact = np.argsort(-values[row], kind="stable")[:k]
            top[row] = exact
            top_values[row] = values[row][exact]
    return top, top_values
