"""overlap@k / path-score / plan-regret metric tests, on synthetic score
rows and on each generator's shortlists."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.beam import BeamSearchPlanner
from repro.retrieval import make_generator, overlap_at_k, path_score, plan_regret

from tests.retrieval.conftest import plan_args


class TestOverlapAtK:
    def test_none_candidates_is_full_overlap(self):
        row = np.array([-np.inf, 3.0, 2.0, 1.0])
        assert overlap_at_k(row, None, 2) == 1.0

    def test_full_candidate_set(self):
        row = np.array([-np.inf, 3.0, 2.0, 1.0])
        assert overlap_at_k(row, np.array([1, 2, 3]), 3) == 1.0

    def test_partial_overlap_fraction(self):
        row = np.array([-np.inf, 5.0, 4.0, 3.0, 2.0, 1.0])
        # exact top-3 = {1, 2, 3}; candidates cover two of them
        assert overlap_at_k(row, np.array([1, 3, 5]), 3) == pytest.approx(2 / 3)

    def test_tie_heavy_vocabulary_uses_stable_order(self):
        # All real items tie: the deterministic reference top-k is the
        # LOWEST k indices, so a candidate set of high-index tied items
        # scores zero overlap even though its values match.
        row = np.full(11, 7.0)
        row[0] = -np.inf
        assert overlap_at_k(row, np.array([1, 2, 3, 4]), 4) == 1.0
        assert overlap_at_k(row, np.array([7, 8, 9, 10]), 4) == 0.0
        assert overlap_at_k(row, np.array([2, 4, 8, 9]), 4) == pytest.approx(0.5)

    def test_k_clipped_to_finite_entries(self):
        row = np.array([-np.inf, 2.0, 1.0, -np.inf, -np.inf])
        # only two finite entries: reference set is {1, 2} whatever k says
        assert overlap_at_k(row, np.array([1, 2]), 4) == 1.0
        assert overlap_at_k(row, np.array([1]), 4) == pytest.approx(0.5)

    def test_all_masked_row(self):
        row = np.full(4, -np.inf)
        assert overlap_at_k(row, np.array([1]), 2) == 1.0

    def test_degenerate_k(self):
        row = np.array([-np.inf, 1.0])
        assert overlap_at_k(row, np.array([1]), 0) == 1.0

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            overlap_at_k(np.zeros((2, 3)), np.array([1]), 1)


class TestPathScore:
    def test_empty_path_is_minus_inf(self, retrieval_irn, contexts):
        history, objective, user = contexts[0]
        assert path_score(retrieval_irn, history, objective, [], user) == -np.inf

    def test_objective_bonus_applied_when_reached(self, retrieval_irn, contexts):
        history, objective, user = contexts[0]
        path = [objective]
        with_bonus = path_score(
            retrieval_irn, history, objective, path, user, objective_bonus=1.0
        )
        without = path_score(
            retrieval_irn, history, objective, path, user, objective_bonus=0.0
        )
        assert with_bonus - without == pytest.approx(1.0, abs=1e-12)

    def test_matches_planner_ranking(self, retrieval_irn, tiny_split, contexts):
        # The planner's chosen path scores at least as well as a random
        # permutation-free alternative ending elsewhere, under the same
        # exact-score replay the planner optimises.
        from repro.core.beam import BeamSearchPlanner

        planner = BeamSearchPlanner(retrieval_irn).fit(tiny_split)
        history, objective, user = contexts[0]
        path = planner.plan_path(history, objective, user_index=user, max_length=4)
        assert path
        score = path_score(retrieval_irn, history, objective, path, user)
        assert np.isfinite(score)


class TestPlanRegret:
    def test_identical_plans_zero_regret(self, retrieval_irn, contexts):
        history, objective, user = contexts[0]
        path = [objective]
        assert plan_regret(
            retrieval_irn, history, objective, path, path, user
        ) == pytest.approx(0.0, abs=1e-12)

    def test_empty_plan_is_nan(self, retrieval_irn, contexts):
        history, objective, user = contexts[0]
        assert np.isnan(
            plan_regret(retrieval_irn, history, objective, [], [objective], user)
        )
        assert np.isnan(
            plan_regret(retrieval_irn, history, objective, [objective], [], user)
        )


class TestPrunedPlanMetrics:
    """What each generator's shortlists cost on real contexts: overlap@k
    against the exact score rows, the pruned plan's regret under exact
    replay, and the planner's request / fallback counters."""

    @pytest.mark.parametrize("spec", ["full", "cooccurrence", "ann"])
    def test_each_generator_reports_overlap_regret_and_fallbacks(
        self, spec, retrieval_irn, tiny_split, contexts
    ):
        args = plan_args(contexts)
        generator = make_generator(spec, num_candidates=16)
        pruned = BeamSearchPlanner(
            retrieval_irn, candidate_generator=generator, plan_cache_size=0
        ).fit(tiny_split)
        exact = BeamSearchPlanner(retrieval_irn, plan_cache_size=0).fit(tiny_split)
        pruned_paths = pruned.plan_paths_batch(*args, max_length=5)
        exact_paths = exact.plan_paths_batch(*args, max_length=5)
        scores = retrieval_irn.score_with_objective_batch(*args)
        overlaps = [
            overlap_at_k(scores[row], generator.candidates(history, objective, user), 10)
            for row, (history, objective, user) in enumerate(contexts)
        ]
        regrets = [
            plan_regret(retrieval_irn, history, objective, exact_path, pruned_path, user)
            for (history, objective, user), exact_path, pruned_path in zip(
                contexts, exact_paths, pruned_paths
            )
        ]
        counters = pruned.cache_info()["retrieval"]
        assert all(0.0 <= overlap <= 1.0 for overlap in overlaps)
        # reported as measured: finite, or NaN where a plan is empty
        assert all(np.isfinite(regret) or np.isnan(regret) for regret in regrets)
        assert counters["requests"] == len(contexts)
        assert 0 <= counters["fallbacks"] <= counters["requests"]
        if spec == "full":  # full coverage: the exact top-k and the exact plans
            assert overlaps == [1.0] * len(contexts)
            assert pruned_paths == exact_paths
            assert regrets == pytest.approx([0.0] * len(contexts), abs=1e-12)
