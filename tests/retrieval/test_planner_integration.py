"""Planner-level contracts of two-stage retrieval.

``full_vocab_parity`` (full-coverage candidate sets plan bit-identically
to the exact planner), candidate containment of pruned plans, retrieval
metrics, and the cache-key discipline keeping pruned and exact plans from
ever aliasing in a :class:`~repro.cache.memo.PlanCache`.
"""

from __future__ import annotations

import pytest

from repro.cache.memo import PlanCache
from repro.core.beam import BeamSearchPlanner
from repro.retrieval import CooccurrenceNeighborGenerator, FullVocabGenerator
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ConfigurationError


def plan_args(contexts):
    return (
        [c[0] for c in contexts],
        [c[1] for c in contexts],
        [c[2] for c in contexts],
    )


class _AlwaysFallback(FullVocabGenerator):
    """A generator that can never shortlist: every context falls back."""

    name = "always-fallback"

    def _candidates(self, history, objective, user_index):
        return None


@pytest.fixture(scope="module")
def exact_plans(retrieval_irn, tiny_split, contexts):
    planner = BeamSearchPlanner(retrieval_irn).fit(tiny_split)
    return planner.plan_paths_batch(*plan_args(contexts), max_length=5)


class TestFullVocabParity:
    def test_plans_bit_identical(self, retrieval_irn, tiny_split, contexts, exact_plans):
        pruned = BeamSearchPlanner(
            retrieval_irn, candidate_generator=FullVocabGenerator()
        ).fit(tiny_split)
        plans = pruned.plan_paths_batch(*plan_args(contexts), max_length=5)
        assert plans == exact_plans

    def test_fallback_contexts_plan_exactly(
        self, retrieval_irn, tiny_split, contexts, exact_plans
    ):
        planner = BeamSearchPlanner(
            retrieval_irn, candidate_generator=_AlwaysFallback()
        ).fit(tiny_split)
        plans = planner.plan_paths_batch(*plan_args(contexts), max_length=5)
        assert plans == exact_plans
        info = planner.cache_info()["retrieval"]
        assert info["fallbacks"] == info["requests"] > 0


class TestPrunedPlanning:
    def test_paths_stay_inside_candidate_sets(self, retrieval_irn, tiny_split, contexts):
        generator = CooccurrenceNeighborGenerator(num_candidates=16)
        planner = BeamSearchPlanner(
            retrieval_irn, candidate_generator=generator
        ).fit(tiny_split)
        plans = planner.plan_paths_batch(*plan_args(contexts), max_length=5)
        assert any(plans)
        for (history, objective, user), path in zip(contexts, plans):
            cands = generator.candidates(history, objective, user)
            if cands is None:
                continue
            assert set(path) <= set(int(i) for i in cands)

    def test_retrieval_metrics_counted(self, retrieval_irn, tiny_split, contexts):
        planner = BeamSearchPlanner(
            retrieval_irn, candidate_generator=CooccurrenceNeighborGenerator(num_candidates=16)
        ).fit(tiny_split)
        planner.plan_paths_batch(*plan_args(contexts), max_length=5)
        info = planner.cache_info()["retrieval"]
        assert info["generator"] == "cooccurrence"
        assert info["requests"] == len(contexts)
        assert info["candidate_items"] > 0
        assert info["fallbacks"] == 0

    def test_generator_fitted_by_planner_fit(self, retrieval_irn, tiny_split):
        generator = CooccurrenceNeighborGenerator(num_candidates=16)
        assert not generator.is_fitted
        BeamSearchPlanner(retrieval_irn, candidate_generator=generator).fit(tiny_split)
        assert generator.is_fitted

    def test_exact_planner_reports_no_retrieval_block(
        self, retrieval_irn, tiny_split
    ):
        planner = BeamSearchPlanner(retrieval_irn).fit(tiny_split)
        assert "retrieval" not in planner.cache_info()

    def test_invalid_generator_rejected(self, retrieval_irn):
        with pytest.raises(ConfigurationError):
            BeamSearchPlanner(retrieval_irn, candidate_generator=object())


class TestCacheKeyDiscipline:
    def test_exact_and_pruned_keys_never_collide(self, retrieval_irn, tiny_split):
        exact = BeamSearchPlanner(retrieval_irn).fit(tiny_split)
        pruned = BeamSearchPlanner(
            retrieval_irn, candidate_generator=FullVocabGenerator()
        ).fit(tiny_split)
        assert exact._retrieval_key() is None
        assert pruned._retrieval_key() is not None
        context = ((1, 2, 3), 4, None, 5)
        cache = PlanCache(maxsize=8)
        cache.put(context + (exact._retrieval_key(),), ("exact",))
        cache.put(context + (pruned._retrieval_key(),), ("pruned",))
        assert len(cache) == 2
        assert cache.get(context + (exact._retrieval_key(),)) == ("exact",)
        assert cache.get(context + (pruned._retrieval_key(),)) == ("pruned",)

    def test_refit_generator_changes_key(self, retrieval_irn, tiny_split):
        generator = FullVocabGenerator()
        planner = BeamSearchPlanner(
            retrieval_irn, candidate_generator=generator
        ).fit(tiny_split)
        before = planner._retrieval_key()
        generator.fit(tiny_split.corpus)
        after = planner._retrieval_key()
        assert before != after

    def test_differently_configured_generators_differ(self, retrieval_irn, tiny_split):
        narrow = BeamSearchPlanner(
            retrieval_irn,
            candidate_generator=CooccurrenceNeighborGenerator(num_candidates=8),
        ).fit(tiny_split)
        wide = BeamSearchPlanner(
            retrieval_irn,
            candidate_generator=CooccurrenceNeighborGenerator(num_candidates=32),
        ).fit(tiny_split)
        assert narrow._retrieval_key() != wide._retrieval_key()

    def test_plan_cache_entries_carry_retrieval_component(
        self, retrieval_irn, tiny_split, contexts
    ):
        generator = FullVocabGenerator()
        planner = BeamSearchPlanner(
            retrieval_irn, candidate_generator=generator
        ).fit(tiny_split)
        planner.plan_paths_batch(*plan_args(contexts[:2]), max_length=5)
        history, objective, user = contexts[0]
        pruned_key = (
            tuple(history), objective, user, 5, generator.retrieval_key()
        )
        exact_key = (tuple(history), objective, user, 5, None)
        assert pruned_key in planner.plan_cache
        assert exact_key not in planner.plan_cache

    def test_step_cache_keys_isolated(self, retrieval_irn, tiny_split, contexts):
        history, objective, user = contexts[0]
        request = [ServeRequest.create("next_step", history, objective, user_index=user)]
        exact = BeamSearchPlanner(retrieval_irn).fit(tiny_split)
        exact.plan_for_requests(request)
        pruned = BeamSearchPlanner(
            retrieval_irn, candidate_generator=FullVocabGenerator()
        ).fit(tiny_split)
        pruned.plan_for_requests(request)
        exact_key = (tuple(history), objective, user, exact.max_length, None)
        pruned_key = (
            tuple(history),
            objective,
            user,
            pruned.max_length,
            pruned._retrieval_key(),
        )
        assert exact_key in exact._step_cache
        assert exact_key not in pruned._step_cache
        assert pruned_key in pruned._step_cache
