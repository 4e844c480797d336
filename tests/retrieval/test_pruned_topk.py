"""The exactness property behind two-stage retrieval.

Candidate-pruned top-k selection is identical to
:func:`repro.shard.topk.stable_topk` over the full scores whenever the
candidate set covers the true top-k — including under heavy ties, where
the deterministic (value desc, index asc) order is what makes the claim
well-defined.  Checked both on synthetic score matrices (pure masking
semantics) and through the IRN's gathered candidate projection: the
per-row ``(batch, K)`` table of ``score_with_objective_batch`` and of a
decoding session, on a float64 program.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.shard.topk import stable_topk
from tests.core.conftest import on_float64


def _mask_outside(row: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    masked = np.full_like(row, -np.inf)
    masked[candidates] = row[candidates]
    return masked


class TestMaskedTopkIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_covering_candidates_reproduce_exact_topk(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(3, 64))
        scores[:, 0] = -np.inf
        k = 8
        top, values = stable_topk(scores, k)
        for row in range(scores.shape[0]):
            extras = rng.choice(np.arange(1, 64), size=12, replace=False)
            cover = np.unique(np.concatenate([top[row], extras]))
            masked = _mask_outside(scores[row], cover)
            pruned_top, pruned_values = stable_topk(masked[None, :], k)
            assert np.array_equal(pruned_top[0], top[row])
            assert np.array_equal(pruned_values[0], values[row])

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_heavy_vocabulary(self, seed):
        # Integer-valued scores force massive ties; the stable order breaks
        # them by index, and a covering candidate set must reproduce that
        # exact selection (an excluded tied item always has a HIGHER index
        # than every selected one, so masking it cannot change winners).
        rng = np.random.default_rng(100 + seed)
        scores = rng.integers(0, 4, size=(2, 40)).astype(np.float64)
        scores[:, 0] = -np.inf
        k = 10
        top, values = stable_topk(scores, k)
        for row in range(scores.shape[0]):
            extras = rng.choice(np.arange(1, 40), size=10, replace=False)
            cover = np.unique(np.concatenate([top[row], extras]))
            masked = _mask_outside(scores[row], cover)
            pruned_top, pruned_values = stable_topk(masked[None, :], k)
            assert np.array_equal(pruned_top[0], top[row])
            assert np.array_equal(pruned_values[0], values[row])

    def test_non_covering_candidates_differ_visibly(self):
        # The counter-example guarding the property's precondition: drop the
        # argmax from the candidate set and the pruned top-k must NOT match.
        scores = np.array([[-np.inf, 5.0, 4.0, 3.0, 2.0]])
        top, _ = stable_topk(scores, 2)
        cover = np.array([2, 3, 4])  # argmax (1) excluded
        masked = _mask_outside(scores[0], cover)
        pruned_top, _ = stable_topk(masked[None, :], 2)
        assert not np.array_equal(pruned_top[0], top[0])


@pytest.fixture(scope="module")
def shortlist_table(retrieval_irn, contexts):
    """One ascending shortlist per context, holding its objective."""
    rng = np.random.default_rng(0)
    rows = [
        np.union1d(rng.choice(np.arange(1, retrieval_irn.vocab_size), size=20, replace=False), [o])
        for _, o, _ in contexts
    ]
    width = max(row.size for row in rows)
    return np.stack([np.concatenate([row, np.repeat(row[-1], width - row.size)]) for row in rows])


class TestIRNCandidateScoring:
    """IRN's gathered projection, on a float64 program: the per-row
    ``(batch, K)`` table of the uncached scorer and of a decoding session."""

    @pytest.fixture(autouse=True)
    def _float64(self, retrieval_irn):
        with on_float64(retrieval_irn):
            yield

    def test_candidate_columns_match_full_scores(
        self, retrieval_irn, contexts, shortlist_table
    ):
        histories, objectives, users = (list(column) for column in zip(*contexts))
        full = retrieval_irn.score_with_objective_batch(histories, objectives, users)
        expected = np.take_along_axis(full, shortlist_table, axis=1)
        pruned = retrieval_irn.score_with_objective_batch(
            histories, objectives, users, candidate_items=shortlist_table
        )
        session_scores, _ = retrieval_irn.begin_decoding_session(
            histories, objectives, users, candidate_items=shortlist_table
        )
        for scores in (pruned, session_scores):
            assert scores.shape == shortlist_table.shape
            np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-9)

    def test_pruned_topk_equals_exact_under_coverage(self, retrieval_irn, contexts):
        k = 5
        for history, objective, user in contexts:
            full = retrieval_irn.score_with_objective_batch(
                [history], [objective], [user]
            )
            top, values = stable_topk(full, k)
            finite = np.isfinite(values[0])
            exact_top = top[0][finite]
            rng = np.random.default_rng(int(objective))
            extras = rng.choice(
                np.arange(1, retrieval_irn.vocab_size), size=15, replace=False
            )
            cover = np.unique(np.concatenate([exact_top, extras, [objective]]))[None, :]
            pruned = retrieval_irn.score_with_objective_batch(
                [history], [objective], [user], candidate_items=cover
            )
            pruned_top, pruned_values = stable_topk(pruned, k)
            pruned_finite = np.isfinite(pruned_values[0])
            assert np.array_equal(cover[0][pruned_top[0][pruned_finite]], exact_top)

    def test_full_coverage_table_matches_exact_scores(self, retrieval_irn, contexts):
        histories, objectives, users = (list(column) for column in zip(*contexts))
        full = retrieval_irn.score_with_objective_batch(histories, objectives, users)
        every_item = np.arange(1, retrieval_irn.vocab_size)
        table = np.tile(every_item, (len(contexts), 1))
        covered = retrieval_irn.score_with_objective_batch(
            histories, objectives, users, candidate_items=table
        )
        session_scores, _ = retrieval_irn.begin_decoding_session(
            histories, objectives, users, candidate_items=table
        )
        for scores in (covered, session_scores):
            np.testing.assert_allclose(scores, full[:, every_item], rtol=0, atol=1e-9)
            # a table of every item ranks like the exact scorer
            top, _ = stable_topk(scores, 5)
            assert np.array_equal(every_item[top], stable_topk(full, 5)[0])

    def test_invalid_candidate_sets_rejected(self, retrieval_irn, contexts):
        from repro.utils.exceptions import ConfigurationError

        history, objective, user = contexts[0]
        for table in (
            np.empty((1, 0), dtype=np.int64),  # an empty table
            np.array([[0, 3]]),  # the padding item
            np.array([[1, retrieval_irn.vocab_size]]),  # past the vocabulary
            np.array([[1.0, 3.0]]),  # not integer ids
            np.array([[1, 3], [2, 4]]),  # two rows for one context
        ):
            with pytest.raises(ConfigurationError):
                retrieval_irn.score_with_objective_batch(
                    [history], [objective], [user], candidate_items=table
                )
            with pytest.raises(ConfigurationError):
                retrieval_irn.begin_decoding_session(
                    [history], [objective], [user], candidate_items=table
                )
