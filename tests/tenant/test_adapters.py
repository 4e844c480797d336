"""Kind adapters: planners and recommenders behind the serving request envelope."""

from __future__ import annotations

import pytest

from repro.serve.request import ServeRequest
from repro.tenant.adapters import KindAdapter, PlannerAdapter, RecommenderAdapter, adapt
from repro.utils.exceptions import ConfigurationError, ServingError


def _envelope(kind, history, objective, path_so_far=(), user_index=None):
    return ServeRequest.create(kind, history, objective, path_so_far, user_index=user_index)


class TestAdaptSniffing:
    def test_planner_becomes_planner_adapter(self, make_planner):
        assert isinstance(adapt(make_planner()), PlannerAdapter)

    def test_recommender_becomes_recommender_adapter(self, fitted_markov):
        assert isinstance(adapt(fitted_markov), RecommenderAdapter)

    def test_knowledge_graph_is_not_served(self, tenant_graph):
        with pytest.raises(ConfigurationError, match="ItemKnowledgeGraph"):
            adapt(tenant_graph)

    def test_prebuilt_adapter_passes_through(self, fitted_markov):
        adapter = RecommenderAdapter(fitted_markov)
        assert adapt(adapter) is adapter

    def test_unadaptable_object_raises_naming_the_surfaces(self):
        with pytest.raises(ConfigurationError, match="plan_for_requests"):
            adapt(object())

    def test_each_adapter_validates_its_model(self):
        with pytest.raises(ConfigurationError, match="plan_for_requests"):
            PlannerAdapter(object())
        with pytest.raises(ConfigurationError, match="top_k"):
            RecommenderAdapter(object())


class TestRecommenderAdapter:
    def test_next_step_is_objective_blind_top_one(self, fitted_markov, tenant_contexts):
        """The A/B control arm: best unseen item, objective ignored."""
        adapter = RecommenderAdapter(fitted_markov)
        history, objective, user = tenant_contexts[0]
        answers = adapter.plan_for_requests(
            [
                _envelope("next_step", history, objective, user_index=user),
                _envelope("next_step", history, objective + 1, user_index=user),
            ]
        )
        exclude = [item for item in history if item != 0]
        ranked = fitted_markov.top_k(history, 1, user_index=user, exclude=exclude)
        expected = int(ranked[0]) if ranked else None
        assert answers == [expected, expected]

    def test_plan_paths_fails_the_whole_sub_batch(self, fitted_markov):
        adapter = RecommenderAdapter(fitted_markov)
        assert adapter.kinds == ("next_step",)
        with pytest.raises(ServingError, match="plan_paths"):
            adapter.plan_for_requests(
                [_envelope("next_step", [1], 2), _envelope("plan_paths", [1], 2)]
            )

    def test_serving_generation_reflects_fit_generation(self, fitted_markov):
        adapter = RecommenderAdapter(fitted_markov)
        expected = getattr(fitted_markov, "fit_generation", None)
        assert adapter.serving_generation == (
            int(expected) if expected is not None else None
        )


class TestPlannerAdapter:
    def test_delegates_the_whole_batch_bit_identically(
        self, make_planner, tenant_contexts
    ):
        planner = make_planner()
        reference = make_planner()
        adapter = PlannerAdapter(planner)
        batch = [
            _envelope("next_step", history, objective, user_index=user)
            for history, objective, user in tenant_contexts[:4]
        ]
        assert adapter.plan_for_requests(batch) == reference.plan_for_requests(batch)

    def test_base_adapter_answer_is_abstract(self):
        adapter = KindAdapter()
        adapter.kinds = ("next_step",)
        with pytest.raises(NotImplementedError):
            adapter.plan_for_requests([_envelope("next_step", [1], 2)])
