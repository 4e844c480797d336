"""Kind adapters: the model zoo behind the serving request envelope."""

from __future__ import annotations

import pytest

from repro.serve.request import ServeRequest
from repro.tenant.adapters import (
    KGAdapter,
    KindAdapter,
    PlannerAdapter,
    RecommenderAdapter,
    adapt,
)
from repro.utils.exceptions import ConfigurationError, ServingError


def _envelope(kind, history, objective, path_so_far=(), user_index=None):
    return ServeRequest.create(kind, history, objective, path_so_far, user_index=user_index)


class TestAdaptSniffing:
    def test_planner_becomes_planner_adapter(self, make_planner):
        assert isinstance(adapt(make_planner()), PlannerAdapter)

    def test_recommender_becomes_recommender_adapter(self, fitted_markov):
        assert isinstance(adapt(fitted_markov), RecommenderAdapter)

    def test_bare_graph_becomes_kg_adapter(self, tenant_graph):
        adapter = adapt(tenant_graph)
        assert isinstance(adapter, KGAdapter)
        assert adapter.kinds == ("kg_path",)

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
        with pytest.raises(ConfigurationError, match="ItemKnowledgeGraph"):
            KGAdapter()


class TestRecommenderAdapter:
    def test_rank_matches_top_k(self, fitted_markov, tenant_contexts):
        adapter = RecommenderAdapter(fitted_markov)
        history, _, user = tenant_contexts[0]
        [answer] = adapter.plan_for_requests(
            [_envelope("rank", history, 5, user_index=user)]
        )
        assert answer == [
            int(item) for item in fitted_markov.top_k(history, 5, user_index=user)
        ]

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

    def test_serving_generation_reflects_fit_generation(self, fitted_markov):
        adapter = RecommenderAdapter(fitted_markov)
        expected = getattr(fitted_markov, "fit_generation", None)
        assert adapter.serving_generation == (
            int(expected) if expected is not None else None
        )


class TestKGAdapter:
    def test_kg_path_matches_shortest_item_path(self, tenant_graph, tenant_contexts):
        adapter = KGAdapter(graph=tenant_graph)
        history, objective, _ = tenant_contexts[0]
        [answer] = adapter.plan_for_requests([_envelope("kg_path", [history[-1]], objective)])
        assert answer == [
            int(item)
            for item in tenant_graph.shortest_item_path(history[-1], objective)
        ]

    def test_unsupported_kind_fails_the_whole_sub_batch(self, tenant_graph):
        adapter = KGAdapter(graph=tenant_graph)
        with pytest.raises(ServingError, match="next_step"):
            adapter.plan_for_requests(
                [_envelope("kg_path", [1], 2), _envelope("next_step", [1], 2)]
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
