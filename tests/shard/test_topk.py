"""Exactness of the stable top-k.

The acceptance property: for tie-heavy score matrices (many equal values)
the top-k must match the stable-argsort result — value descending, ties
broken by lowest column index.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard.topk import ARGMAX_ROUNDS, stable_topk
from repro.utils.exceptions import ConfigurationError


def reference_topk(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The pre-batching semantics: full stable argsort, first k columns."""
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(values, order, axis=1)


def tie_heavy_matrix(rng: np.random.Generator, rows: int, vocab: int) -> np.ndarray:
    """Scores quantised to a handful of levels so ties are everywhere."""
    return rng.integers(0, 4, size=(rows, vocab)).astype(np.float64) * 0.5


class TestStableTopk:
    def test_matches_stable_argsort_on_ties(self, rng):
        for trial in range(20):
            values = tie_heavy_matrix(rng, rows=6, vocab=23)
            for k in (1, 2, 5, 23):
                expected_idx, expected_val = reference_topk(values, k)
                got_idx, got_val = stable_topk(values, k)
                np.testing.assert_array_equal(got_idx, expected_idx)
                np.testing.assert_array_equal(got_val, expected_val)

    def test_distinct_values(self, rng):
        values = rng.normal(size=(4, 31))
        got_idx, _ = stable_topk(values, 7)
        expected_idx, _ = reference_topk(values, 7)
        np.testing.assert_array_equal(got_idx, expected_idx)

    def test_rejects_bad_k(self):
        values = np.zeros((2, 5))
        with pytest.raises(ConfigurationError):
            stable_topk(values, 0)
        with pytest.raises(ConfigurationError):
            stable_topk(values, 6)

    def test_constant_matrix_is_the_worst_tie_case(self):
        values = np.full((3, 24), 1.25)
        got_idx, got_val = stable_topk(values, 5)
        np.testing.assert_array_equal(got_idx, np.tile(np.arange(5), (3, 1)))
        assert (got_val == 1.25).all()

    def test_neg_inf_finite_prefix_matches(self, rng):
        """Rows with masked (-inf) columns: the finite selections must match
        the stable argsort; -inf padding beyond them is arbitrary by
        contract (consumers filter non-finite values)."""
        values = tie_heavy_matrix(rng, rows=6, vocab=20)
        values[:, ::3] = -np.inf
        expected_idx, expected_val = reference_topk(values, 6)
        got_idx, got_val = stable_topk(values, 6)
        finite = np.isfinite(expected_val)
        np.testing.assert_array_equal(np.isfinite(got_val), finite)
        np.testing.assert_array_equal(got_idx[finite], expected_idx[finite])
        np.testing.assert_array_equal(got_val[finite], expected_val[finite])

    def test_all_neg_inf_rows_survive(self):
        got_idx, got_val = stable_topk(np.full((2, 9), -np.inf), 3)
        assert got_idx.shape == (2, 3)
        assert not np.isfinite(got_val).any()

    def test_rejects_a_non_matrix(self):
        with pytest.raises(ConfigurationError, match="rows, vocab"):
            stable_topk(np.zeros(5), 2)


#: (rows, vocab, k): the degenerate shapes, k = vocab, and the (rows, C)
#: blocks the planner selects from at the e2e workloads' sizes
PLANNER_SHAPES = [
    (1, 1, 1),
    (3, 4, 2),
    (3, 4, 4),
    (6, 23, 5),
    (16, 216, 3),
    (16, 216, 12),
    (64, 128, 4),
    (8, 2000, 16),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("rows,vocab,k", PLANNER_SHAPES, ids=lambda v: str(v))
def test_tie_heavy_parity_at_planner_shapes(rows, vocab, k, dtype, rng):
    """Both inference dtypes, ties at the k-th boundary on almost every row
    (four score levels), and a distinct-valued matrix of the same shape."""
    for values in (
        tie_heavy_matrix(rng, rows, vocab).astype(dtype),
        rng.normal(size=(rows, vocab)).astype(dtype),
    ):
        expected_idx, expected_val = reference_topk(values, k)
        got_idx, got_val = stable_topk(values, k)
        np.testing.assert_array_equal(got_idx, expected_idx)
        np.testing.assert_array_equal(got_val, expected_val)
        assert got_val.dtype == dtype


@pytest.mark.parametrize("k", [1, 3, ARGMAX_ROUNDS])
def test_small_k_matches_the_stable_argsort_on_non_finite_rows(k, rng):
    """Up to :data:`ARGMAX_ROUNDS` winners every row is the stable argsort,
    rows with fewer than k finite cells, NaN and +inf cells included: a
    masked winner never repeats a column."""
    values = tie_heavy_matrix(rng, rows=6, vocab=10)
    values[0] = -np.inf
    values[1, 1:] = -np.inf  # one finite cell, then masked ones
    values[2, 3] = np.nan
    values[3, 5] = np.inf
    values[4, ::2] = -np.inf
    expected_idx, expected_val = reference_topk(values, k)
    got_idx, got_val = stable_topk(values, k)
    np.testing.assert_array_equal(got_idx, expected_idx)
    np.testing.assert_array_equal(got_val, expected_val)
    assert all(len(set(row)) == k for row in got_idx.tolist())
