"""Unit tests for Algorithm 1 (the influence-path loop)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.base import InfluentialRecommender
from repro.core.influence_path import generate_influence_path, log_softmax_rows
from repro.utils.exceptions import ConfigurationError


class _ScriptedRecommender(InfluentialRecommender):
    """Deterministic stub: returns items from a script, then None."""

    name = "scripted"

    def __init__(self, script):
        super().__init__()
        self.script = list(script)
        self.calls = []

    def fit(self, split):
        return self

    def next_step(self, history, objective, path_so_far, user_index=None):
        self.calls.append((tuple(history), objective, tuple(path_so_far)))
        if len(path_so_far) < len(self.script):
            return self.script[len(path_so_far)]
        return None


class TestGenerateInfluencePath:
    def test_stops_at_objective(self):
        recommender = _ScriptedRecommender([5, 6, 7, 8])
        path = generate_influence_path(recommender, [1, 2], objective=7, max_length=10)
        assert path == [5, 6, 7]

    def test_respects_max_length(self):
        recommender = _ScriptedRecommender(list(range(10, 30)))
        path = generate_influence_path(recommender, [1], objective=999, max_length=5)
        assert len(path) == 5

    def test_stops_when_recommender_returns_none(self):
        recommender = _ScriptedRecommender([4, 5])
        path = generate_influence_path(recommender, [1], objective=99, max_length=10)
        assert path == [4, 5]

    def test_passes_growing_path_to_recommender(self):
        recommender = _ScriptedRecommender([3, 4, 5])
        generate_influence_path(recommender, [1, 2], objective=5, max_length=10)
        assert recommender.calls[0] == ((1, 2), 5, ())
        assert recommender.calls[1] == ((1, 2), 5, (3,))
        assert recommender.calls[2] == ((1, 2), 5, (3, 4))

    def test_invalid_max_length(self):
        recommender = _ScriptedRecommender([1])
        with pytest.raises(ConfigurationError):
            generate_influence_path(recommender, [1], objective=2, max_length=0)

    def test_objective_as_first_recommendation(self):
        recommender = _ScriptedRecommender([42])
        assert generate_influence_path(recommender, [1], objective=42, max_length=10) == [42]

    def test_method_on_base_class_delegates(self):
        recommender = _ScriptedRecommender([9, 8])
        assert recommender.generate_path([1], objective=8, max_length=10) == [9, 8]


def _reference_log_softmax_rows(scores):
    """The planner's masked log-softmax as first written (≈ 9 array passes)."""
    finite = np.isfinite(scores)
    any_finite = finite.any(axis=1)
    row_max = np.max(np.where(finite, scores, -np.inf), axis=1, initial=-np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = scores - np.where(any_finite, row_max, 0.0)[:, None]
        exp = np.where(finite, np.exp(shifted), 0.0)
        log_norm = np.log(exp.sum(axis=1))
        return np.where(finite, shifted - log_norm[:, None], -np.inf)


class TestLogSoftmaxRows:
    """One masked log-softmax for the planner and the retrieval metrics."""

    @settings(max_examples=300, deadline=None)
    @given(
        scores=hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 5), st.integers(0, 9)),
            elements=st.one_of(
                st.floats(min_value=-50.0, max_value=50.0),
                st.sampled_from([-np.inf, np.inf, np.nan, 0.0, 1.0]),
            ),
        )
    )
    def test_bit_identical_to_the_first_formulation(self, scores):
        expected = _reference_log_softmax_rows(scores)
        block = scores.copy()
        result = log_softmax_rows(block)
        assert result is block  # in place
        assert np.array_equal(result, expected)  # bit for bit; no NaN survives
        # non-finite inputs (masks, +inf, NaN) keep their "masked" meaning
        assert np.all(np.isneginf(result[~np.isfinite(scores)]))

    def test_all_masked_rows_stay_masked(self):
        block = np.array([[-np.inf, 1.0, 2.0, 0.5], [-np.inf] * 4])
        result = log_softmax_rows(block)
        assert np.exp(result[0, 1:]).sum() == pytest.approx(1.0)
        assert np.all(np.isneginf(result[1])) and result[0, 0] == -np.inf
