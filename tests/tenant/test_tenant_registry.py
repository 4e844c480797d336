"""TenantRegistry: construction, routing, batch grouping, failure scoping."""

from __future__ import annotations

import pytest

from repro.serve.request import ServeRequest
from repro.tenant import TenantRegistry
from repro.utils.exceptions import ConfigurationError, ServingError

from tests.tenant.conftest import control_step


def _envelope(kind, history, objective, tenant=None, **kwargs):
    return ServeRequest.create(kind, history, objective, tenant=tenant, **kwargs)


class TestConstruction:
    def test_duplicate_and_bad_names_are_rejected(self, fitted_markov):
        registry = TenantRegistry()
        registry.add("zoo", fitted_markov)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.add("zoo", fitted_markov)
        with pytest.raises(ConfigurationError, match="non-empty string"):
            registry.add("", fitted_markov)

    def test_uniform_builds_count_tenants_over_one_model(self, fitted_markov):
        registry = TenantRegistry.uniform(fitted_markov, 3)
        assert registry.names == ("tenant-0", "tenant-1", "tenant-2")
        assert len(registry) == 3
        with pytest.raises(ConfigurationError, match="positive integer"):
            TenantRegistry.uniform(fitted_markov, 0)

    def test_unknown_tenant_lookup_names_the_registered_ones(self, fitted_markov):
        registry = TenantRegistry()
        registry.add("zoo", fitted_markov)
        with pytest.raises(ServingError, match="zoo"):
            registry.get("ghost")


class TestRouting:
    def test_assign_is_deterministic_and_covers_tenants(self, fitted_markov):
        registry = TenantRegistry.uniform(fitted_markov, 2)
        keys = [("t", (i,), i) for i in range(40)]
        first = [registry.assign(key) for key in keys]
        assert first == [registry.assign(key) for key in keys]
        assert set(first) == {"tenant-0", "tenant-1"}

    def test_resolve_writes_the_assigned_tenant_onto_the_envelope(
        self, fitted_markov
    ):
        registry = TenantRegistry.uniform(fitted_markov, 2)
        request = _envelope("next_step", [1, 2], 5)
        assert request.tenant is None
        binding = registry.resolve(request)
        assert request.tenant == binding.name
        # A tenanted request resolves to its own binding, untouched.
        tenanted = _envelope("next_step", [1, 2], 5, tenant="tenant-1")
        assert registry.resolve(tenanted).name == "tenant-1"


class TestPlanBatch:
    def test_mixed_batch_answers_align_with_per_tenant_oracles(
        self, make_planner, fitted_markov, tenant_contexts
    ):
        planner = make_planner()
        reference = make_planner()
        registry = TenantRegistry()
        registry.add("irs", planner)
        registry.add("zoo", fitted_markov)
        history, objective, user = tenant_contexts[0]
        batch = [
            _envelope("next_step", history, objective, tenant="irs", user_index=user),
            _envelope("next_step", history, objective, tenant="zoo", user_index=user),
            _envelope("plan_paths", history, objective, tenant="irs", user_index=user),
        ]
        answers, generations, failures = registry.plan_batch(batch)
        assert failures == {}
        assert answers[0] == reference.next_step(history, objective, [], user_index=user)
        assert answers[1] == control_step(fitted_markov, history, user)
        assert answers[2] == reference.plan_path(history, objective, user_index=user)
        assert set(generations) == {"irs", "zoo"}

    def test_failures_are_confined_to_the_offending_tenant(
        self, make_planner, fitted_markov, tenant_contexts
    ):
        reference = make_planner()
        registry = TenantRegistry()
        registry.add("irs", make_planner())
        registry.add("zoo", fitted_markov)
        history, objective, user = tenant_contexts[0]
        batch = [
            # The recommender cannot plan a path: this tenant's whole
            # sub-batch fails...
            _envelope("plan_paths", history, objective, tenant="zoo"),
            _envelope("next_step", history, objective, tenant="irs", user_index=user),
            _envelope("next_step", history, objective, tenant="zoo"),
        ]
        answers, _, failures = registry.plan_batch(batch)
        assert sorted(failures) == [0, 2]
        assert all(isinstance(exc, ServingError) for exc in failures.values())
        # ...while the neighbour's slot in the same drain still answered.
        assert answers[1] == reference.next_step(history, objective, [], user_index=user)


class TestPinGeneration:
    def test_stamps_versionable_models_and_skips_the_rest(self, make_planner, fitted_markov):
        planner = make_planner()
        registry = TenantRegistry()
        registry.add("irs", planner)
        registry.add("zoo", fitted_markov)
        registry.pin_generation(7)
        assert planner.serving_generation == 7
        assert registry.get("irs").adapter.serving_generation == 7
        # The recommender has no pin hook and the Markov chain no
        # generation: the pin skips it.
        assert not hasattr(fitted_markov, "fit_generation")
        assert registry.get("zoo").adapter.serving_generation is None
