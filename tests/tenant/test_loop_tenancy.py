"""The in-process multi-tenant surface: parity, release order, refit opacity."""

from __future__ import annotations

import time

import pytest

from repro.serve import ServingLoop
from repro.serve.api import NextStepRequest, PlanRequest
from repro.tenant import TenantRegistry

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


class TestReleaseBeforeWake:
    def test_pending_entry_is_free_before_the_future_wakes_anyone(
        self, make_planner, tenant_contexts
    ):
        """``Future.set_result`` wakes waiters before it runs done-callbacks,
        so an entry released in a done-callback could still be held when the
        woken client submits its next step.  The context's pending-replan
        entry is handed back BEFORE the future completes: a callback
        registered ahead of ``enqueue`` — it runs before any the loop could
        add — already sees no pending replan, and the step it submits is
        answered at admission."""
        from repro.serve.request import ServeRequest

        registry = TenantRegistry()
        registry.add("solo", make_planner())
        history, objective, user = tenant_contexts[0]

        def envelope():
            return ServeRequest.create(
                "next_step", history, objective, user_index=user, tenant="solo"
            )

        seen = []
        with ServingLoop(None, tenants=registry) as loop:

            def on_done(_future):
                pending = dict(loop._pending)
                seen.append((pending, loop.enqueue(envelope()).done()))

            first = envelope()  # a miss: queued, answered by the drain thread
            first.future.add_done_callback(on_done)
            loop.enqueue(first).result(timeout=10)
            stats = loop.stats()
        assert seen == [({}, True)]
        assert stats["resident"] == 1 and stats["served"] == 2
        assert stats["tenants"]["solo"]["served"] == 2
        assert loop._pending == {}


class TestTenantDeadlines:
    def test_expired_tenanted_requests_count_on_the_loops_controller(
        self, zoo_registry, tenant_contexts
    ):
        """A tenanted request past its deadline is refused at admission, or
        before its drained batch plans, and counted as ``expired`` on the
        loop's one admission controller — a tenant has no scope of its own."""
        from repro.serve.request import ServeRequest
        from repro.utils.exceptions import DeadlineExceeded

        history, objective, user = tenant_contexts[0]

        def plan(deadline):
            return ServeRequest.create(
                "plan_paths", history, objective, user_index=user, tenant="irs",
                deadline=deadline,
            )

        loop = ServingLoop(None, tenants=zoo_registry())  # not started: nothing drains
        with pytest.raises(DeadlineExceeded):
            loop.enqueue(plan(time.perf_counter() - 0.25))
        queued = plan(time.perf_counter() + 0.3)
        loop.enqueue(queued)
        time.sleep(0.4)  # expires while it waits in the queue
        loop.close()  # drains inline
        with pytest.raises(DeadlineExceeded):
            queued.future.result(timeout=10)
        stats = loop.stats()
        assert (stats["admission"]["expired"], stats["admission"]["rejected"]) == (2, 0)
        assert stats["served"] == 0
        assert "admission" not in stats["tenants"]["irs"]


class TestRefitOpacity:
    def test_refit_is_invisible_to_a_static_tenant(
        self, make_planner, fitted_markov, tenant_contexts
    ):
        """A refit flips the loop's planner generation; a tenant bound to a
        static recommender keeps answering identically."""

        def tenant_factory() -> TenantRegistry:
            registry = TenantRegistry()
            registry.add("zoo", fitted_markov)
            return registry

        history, objective, user = tenant_contexts[0]
        request = NextStepRequest(
            history=history, objective=objective, user_index=user, tenant="zoo"
        )
        with ServingLoop(make_planner(), tenants=tenant_factory()) as loop:
            before = loop.serve(request).result()
            report = loop.refit(make_planner, tenant_factory)
            after = loop.serve(request).result()
        assert report["generation_to"] == 2
        assert after.answer == before.answer
        assert after.tenant == before.tenant == "zoo"
