"""The in-process multi-tenant surface: parity, isolation, refit opacity."""

from __future__ import annotations

import pytest

from repro.replica.set import ReplicaSet
from repro.serve import ServingLoop
from repro.serve.api import NextStepRequest, PlanRequest
from repro.tenant import TenantRegistry
from repro.utils.exceptions import QueueFullError

from tests.tenant.conftest import MAX_LENGTH, control_step


@pytest.fixture()
def zoo_registry(make_planner, fitted_markov):
    def build() -> TenantRegistry:
        registry = TenantRegistry()
        registry.add("irs", make_planner())
        registry.add("zoo", fitted_markov)
        return registry

    return build


class TestKindParity:
    def test_every_kind_matches_its_direct_model_oracle(
        self, zoo_registry, make_planner, fitted_markov, tenant_contexts
    ):
        reference = make_planner()
        contexts = tenant_contexts[:6]
        with ServingLoop(None, tenants=zoo_registry()) as loop:
            for history, objective, user in contexts:
                responses = [
                    loop.serve(request).result()
                    for request in (
                        NextStepRequest(
                            history=history, objective=objective,
                            user_index=user, tenant="irs",
                        ),
                        PlanRequest(
                            history=history, objective=objective, user_index=user,
                            max_length=MAX_LENGTH, tenant="irs",
                        ),
                        NextStepRequest(
                            history=history, objective=objective,
                            user_index=user, tenant="zoo",
                        ),
                    )
                ]
                expected = [
                    reference.next_step(history, objective, [], user_index=user),
                    reference.plan_path(
                        history, objective, user_index=user, max_length=MAX_LENGTH
                    ),
                    control_step(fitted_markov, history, user),
                ]
                assert [response.answer for response in responses] == expected
                assert [response.tenant for response in responses] == [
                    "irs", "irs", "zoo",
                ]
                assert all(response.latency_s >= 0.0 for response in responses)

    def test_tenant_stats_key_by_tenant_id(self, zoo_registry, tenant_contexts):
        history, objective, user = tenant_contexts[0]
        with ServingLoop(None, tenants=zoo_registry()) as loop:
            loop.serve(
                NextStepRequest(
                    history=history, objective=objective, user_index=user, tenant="zoo"
                )
            ).result()
            stats = loop.stats()
        assert set(stats["tenants"]) == {"irs", "zoo"}
        assert stats["tenants"]["zoo"]["served"] == 1
        assert stats["tenants"]["irs"]["served"] == 0
        assert stats["tenants"]["zoo"]["kinds"] == ["next_step"]
        assert stats["tenants"]["irs"]["kinds"] == ["next_step", "plan_paths"]


class TestCrossTenantIsolation:
    def test_bounded_tenant_overflow_never_touches_its_neighbour(
        self, make_planner, fitted_markov, tenant_contexts
    ):
        bound, attempts = 2, 6
        registry = TenantRegistry()
        registry.add("noisy", make_planner(), max_inflight=bound, admission_policy="reject")
        registry.add("neighbour", fitted_markov)
        loop = ServingLoop(None, tenants=registry)
        history, objective, user = tenant_contexts[0]
        futures, rejects = [], 0
        # Not started: admitted envelopes hold their tenant's in-flight
        # slots, so the bounded tenant overflows deterministically.
        for _ in range(attempts):
            try:
                futures.append(
                    loop.enqueue(
                        NextStepRequest(
                            history=history, objective=objective,
                            user_index=user, tenant="noisy",
                        ).to_envelope()
                    )
                )
            except QueueFullError:
                rejects += 1
        for _ in range(attempts):
            futures.append(
                loop.enqueue(
                    NextStepRequest(
                        history=history, objective=objective,
                        user_index=user, tenant="neighbour",
                    ).to_envelope()
                )
            )
        with loop:
            for future in futures:
                future.result()
        stats = loop.stats()["tenants"]
        assert rejects == attempts - bound
        assert stats["noisy"]["served"] == bound
        assert stats["noisy"]["admission"]["rejected"] == rejects
        # The neighbour's full cohort served, zero rejects anywhere near it.
        assert stats["neighbour"]["served"] == attempts
        assert "admission" not in stats["neighbour"]


    def test_inflight_slot_is_free_before_the_future_wakes_anyone(
        self, make_planner, tenant_contexts
    ):
        """``Future.set_result`` wakes waiters before it runs done-callbacks,
        so a slot released in a done-callback could still be held when the
        woken client submits its next step.  The slot (and the context's
        pending-replan entry) is handed back BEFORE the future completes: a
        callback registered ahead of ``enqueue`` — it runs before any the
        loop could add — already reads 0 in flight, and the step it submits
        under ``reject`` is admitted and answered at admission."""
        from repro.serve.request import ServeRequest

        registry = TenantRegistry()
        binding = registry.add(
            "solo", make_planner(), max_inflight=1, admission_policy="reject"
        )
        history, objective, user = tenant_contexts[0]

        def envelope():
            return ServeRequest.create(
                "next_step", history, objective, user_index=user, tenant="solo"
            )

        seen = []
        with ServingLoop(None, tenants=registry) as loop:

            def on_done(_future):
                inflight = binding.inflight
                try:
                    follow_up = loop.enqueue(envelope())
                except QueueFullError as exc:
                    seen.append((inflight, exc))
                else:
                    seen.append((inflight, follow_up.done()))

            first = envelope()  # a miss: queued, answered by the drain thread
            first.future.add_done_callback(on_done)
            loop.enqueue(first).result(timeout=10)
            stats = loop.stats()
        assert seen == [(0, True)]
        assert stats["resident"] == 1 and stats["served"] == 2
        assert stats["tenants"]["solo"]["admission"]["rejected"] == 0
        assert binding.inflight == 0 and loop._pending == {}


class TestRefitOpacity:
    def test_refit_is_invisible_to_a_static_tenant(
        self, make_planner, fitted_markov, tenant_contexts
    ):
        """A fleet refit flips every replica's planner generation; a tenant
        bound to a static recommender keeps answering identically."""

        def tenant_factory() -> TenantRegistry:
            registry = TenantRegistry()
            registry.add("zoo", fitted_markov)
            return registry

        history, objective, user = tenant_contexts[0]
        request = NextStepRequest(
            history=history, objective=objective, user_index=user, tenant="zoo"
        )
        with ReplicaSet(
            make_planner, num_replicas=2, tenant_factory=tenant_factory
        ) as replica_set:
            before = replica_set.serve(request).result()
            report = replica_set.refit()
            after = replica_set.serve(request).result()
        assert report["generation_to"] == 2
        assert after.answer == before.answer
        assert after.tenant == before.tenant == "zoo"
