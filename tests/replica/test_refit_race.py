"""Hot-refit correctness: atomic generation flips under live traffic.

:meth:`ServingLoop.refit <repro.serve.loop.ServingLoop.refit>` builds the
next generation off-path and flips it in between two drains: requests
enqueued during the flip window all answer from exactly one generation —
no torn micro-batch mixes generations; no admitted request is ever dropped
or errored by a refit; per serving context the answering generation is
monotone in submission order.  The process fleet holds the same contract
(``tests/replica/test_parent_mirror.py::TestMirrorAndRefit``,
``tests/distributed/test_remote_refit.py``); what both front-ends promise
about refits is written once in ``test_fleet_contract.py``.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

import pytest

from repro.replica import run_replicated_open_loop
from repro.serve import ServingLoop
from repro.serve.request import ServeRequest
from repro.tenant import TenantRegistry
from repro.utils.exceptions import ConfigurationError, ServingError, StaleGenerationError

MAX_LENGTH = 5  # keep in sync with tests/replica/conftest.py


def _drain(requests):
    """Resolve every future loudly; returns the envelopes."""
    for request in requests:
        request.future.result()
    return requests


def _submit_round(loop, contexts, kind="next_step"):
    requests = []
    for history, objective, user in contexts:
        request = ServeRequest.create(kind, history, objective, user_index=user)
        loop.enqueue(request)
        requests.append(request)
    return requests


class TestRefitRace:
    def test_flip_window_requests_answer_from_exactly_one_generation(
        self, fresh_factory, replica_contexts
    ):
        factory = fresh_factory()
        with ServingLoop(factory()) as loop:
            # Phase 1: pre-refit traffic is all generation 1.
            before = _drain(_submit_round(loop, replica_contexts))
            assert {r.served_generation for r in before} == {1}

            # Phase 2: keep submitting while the refit trains and flips.
            during: list = []
            refit_report: dict = {}

            def run_refit():
                refit_report.update(loop.refit(factory))

            refitter = threading.Thread(target=run_refit)
            # Switch threads often, so submissions interleave with the flip.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                refitter.start()
                # Bounded pressure: keep the flip window busy without letting
                # a slow CI box accumulate an unbounded backlog (the block
                # policy already throttles producers at the queue bound).
                while refitter.is_alive() and len(during) < 1800:
                    during.extend(_submit_round(loop, replica_contexts))
                refitter.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not refitter.is_alive()
            _drain(during)

            # Phase 3: post-refit traffic is all generation 2.
            after = _drain(_submit_round(loop, replica_contexts))
            assert {r.served_generation for r in after} == {2}

        # Every admitted request resolved with an answer at a generation.
        everything = before + during + after
        assert all(r.future.done() for r in everything)
        assert all(r.served_generation in (1, 2) for r in everything)

        # No torn micro-batch: group by the drain's batch tag — each batch
        # was answered at exactly one generation.
        batches: "dict[int, set]" = {}
        for request in everything:
            batches.setdefault(request.batch_tag, set()).add(request.served_generation)
        assert all(len(generations) == 1 for generations in batches.values())

        # Per serving context, the answering generation is monotone in
        # submission order: once a context sees the new model it never
        # falls back to the old one.
        per_context: "dict[tuple, list[int]]" = {}
        for request in everything:
            per_context.setdefault(request.routing_key(), []).append(
                request.served_generation
            )
        for generations in per_context.values():
            assert generations == sorted(generations)

        assert refit_report["generation_from"] == 1
        assert refit_report["generation_to"] == 2
        assert loop.fit_generation == 2

    def test_open_loop_traffic_never_pauses_across_a_refit(
        self, fresh_factory, replica_contexts
    ):
        """The report ``serve-sim --refit-at`` publishes: no admitted request
        errored, none rejected under the block policy (``no_pause``), and the
        refit stepped exactly one generation forward."""
        factory = fresh_factory()
        with ServingLoop(factory()) as loop:
            report = run_replicated_open_loop(
                loop,
                replica_contexts,
                arrival_rate=200.0,
                num_requests=120,
                max_length=MAX_LENGTH,
                refit_at=0.0,
                refit=lambda: loop.refit(factory),
            )
        assert report["admission"]["policy"] == "block"
        assert report["errored_requests"] == report["rejected_requests"] == 0
        assert report["no_pause"] is True
        refit = report["refit"]
        assert refit["generation_to"] == refit["generation_from"] + 1
        assert report["fit_generation"] == refit["generation_to"]
        assert report["admitted_requests"] == sum(report["generations_served"].values())

    def test_refit_waits_for_the_batch_in_flight_and_reports(
        self, fresh_factory, replica_contexts
    ):
        """The batch planning at the flip finishes on the old generation
        before refit() returns; what was still queued is answered by the
        new one."""
        factory = fresh_factory()
        gate, entered = threading.Event(), threading.Event()
        planner = factory()
        plan = planner.plan_paths_batch

        def gated(*args, **kwargs):
            entered.set()
            assert gate.wait(30.0)
            return plan(*args, **kwargs)

        planner.plan_paths_batch = gated
        with ServingLoop(planner, drain_deadline=0.0) as loop:
            in_flight = _submit_round(loop, replica_contexts[:1], kind="plan_paths")
            assert entered.wait(30.0)
            queued = _submit_round(loop, replica_contexts[1:], kind="plan_paths")
            reports: list = []
            refitter = threading.Thread(target=lambda: reports.append(loop.refit(factory)))
            refitter.start()
            deadline = time.perf_counter() + 30.0
            while loop.fit_generation == 1 and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert loop.fit_generation == 2
            assert refitter.is_alive()  # flipped, but the old batch still plans
            gate.set()
            refitter.join(30.0)
            assert not refitter.is_alive()
            _drain(in_flight + queued)
            (report,) = reports
        assert {r.served_generation for r in in_flight} == {1}
        assert {r.served_generation for r in queued} == {2}
        assert report["inflight_at_flip"] == len(in_flight)
        assert report["train_seconds"] >= 0 and report["retire_seconds"] >= 0
        assert report["flip_seconds"] < 0.5  # the flip is a pointer swap, not training

    def test_a_refit_calls_each_factory_once(self, fresh_factory):
        """A refit builds one standby generation: one planner and one tenant
        registry, both pinned to the new generation."""
        base_factory = fresh_factory()
        calls = {"planner": 0, "tenants": 0}

        def planner_factory():
            calls["planner"] += 1
            return base_factory()

        def tenant_factory():
            calls["tenants"] += 1
            registry = TenantRegistry()
            registry.add("irs", base_factory())
            return registry

        with ServingLoop(planner_factory(), tenants=tenant_factory()) as loop:
            old = loop.tenants
            loop.refit(planner_factory, tenant_factory)
            assert calls == {"planner": 2, "tenants": 2}
            assert loop.tenants is not old
            assert loop.planner.serving_generation == 2
            assert loop.tenants.get("irs").adapter.serving_generation == 2

    def test_the_uniform_registry_is_rebuilt_for_the_new_generation(
        self, fresh_factory, replica_contexts, monkeypatch
    ):
        """``REPRO_TENANTS`` synthesizes a registry over the loop's planner;
        a refit synthesizes it again, over the NEW planner."""
        monkeypatch.setenv("REPRO_TENANTS", "2")
        factory = fresh_factory()
        with ServingLoop(factory()) as loop:
            names = loop.tenants.names
            before = _drain(_submit_round(loop, replica_contexts))
            loop.refit(factory)
            assert loop.tenants.names == names
            assert {binding.adapter.model() for binding in loop.tenants.bindings()} == {
                loop.planner
            }
            after = _drain(_submit_round(loop, replica_contexts))
            stats = loop.stats()
        assert {r.served_generation for r in before} == {1}
        assert {r.served_generation for r in after} == {2}
        # a tenant's counters keep counting across the swap of its registry
        assert sum(t["served"] for t in stats["tenants"].values()) == stats["served"]

    def test_the_old_generation_is_released_after_its_last_batch(
        self, fresh_factory, replica_contexts
    ):
        """A loop refitting periodically never retains old generations'
        models: once the batch in flight at the flip has drained, nothing
        holds the old planner."""
        factory = fresh_factory()
        planner = factory()
        old = weakref.ref(planner)
        with ServingLoop(planner) as loop:
            del planner
            _drain(_submit_round(loop, replica_contexts))
            loop.refit(factory)
            _drain(_submit_round(loop, replica_contexts, kind="plan_paths"))
            gc.collect()
            assert old() is None
            assert loop.planner is not None

    def test_refit_on_closed_set_rejected(self, fresh_factory):
        factory = fresh_factory()
        loop = ServingLoop(factory())
        loop.start()
        loop.close()
        with pytest.raises(ServingError, match="closed"):
            loop.refit(factory)

    def test_a_factory_that_builds_no_planner_is_refused(self, fresh_factory, replica_contexts):
        factory = fresh_factory()
        with ServingLoop(factory()) as loop:
            with pytest.raises(ConfigurationError, match="plan_for_requests"):
                loop.refit(lambda: object())
            assert loop.fit_generation == 1
            served = _drain(_submit_round(loop, replica_contexts))
            assert {r.served_generation for r in served} == {1}
            assert loop.refit(factory)["generation_to"] == 2

    def test_successive_refits_keep_bumping_the_generation(
        self, fresh_factory, replica_contexts
    ):
        factory = fresh_factory()
        with ServingLoop(factory()) as loop:
            assert loop.fit_generation == 1
            loop.refit(factory)
            loop.refit(factory)
            assert loop.fit_generation == 3
            after = _drain(_submit_round(loop, replica_contexts))
            assert {r.served_generation for r in after} == {3}
            assert loop.stats()["generation"] == 3


class TestGenerationPinning:
    def test_pinned_planner_rejects_in_place_retrain(self, fresh_factory, tiny_split):
        """The protocol violation the pin exists for: retraining a serving
        replica's backbone in place raises instead of serving mixed
        generations or silently invalidating."""
        planner = fresh_factory()()
        pinned = planner.pin_generation()
        assert pinned == planner.backbone.fit_generation
        assert planner.serving_generation == pinned
        planner.backbone.fit(tiny_split)  # in-place retrain under the pin
        with pytest.raises(StaleGenerationError, match="pinned"):
            planner.next_step([1, 2], 3, [])

    def test_pin_carries_the_replica_sets_generation_tag(self, fresh_factory):
        planner = fresh_factory()()
        planner.pin_generation(serving_generation=7)
        assert planner.serving_generation == 7
        # Enforcement still keys on the backbone's own fit_generation.
        assert planner._pinned_generation == planner.backbone.fit_generation

    def test_unpinned_planner_still_invalidates_silently(self, fresh_factory, tiny_split):
        """The pre-replication behaviour is unchanged for unpinned planners:
        a backbone retrain invalidates caches and replans, no error."""
        planner = fresh_factory()()
        first = planner.next_step([1, 2], 3, [])
        planner.backbone.fit(tiny_split)
        again = planner.next_step([1, 2], 3, [])
        assert again == first  # deterministic retrain -> identical weights

    @staticmethod
    def _retrain_mid_plan(planner, monkeypatch, bump: bool = True) -> None:
        """Make the backbone's ``fit_generation`` move inside the planning
        call (the race a fused plan must not hand back half of)."""
        plan_beam = planner._plan_beam

        def retrained(*args):
            if bump:
                planner.backbone._fit_generation += 1
            return plan_beam(*args)

        monkeypatch.setattr(planner, "_plan_beam", retrained)

    def test_generation_guard_detects_mid_plan_retrain(
        self, fresh_factory, replica_contexts, monkeypatch
    ):
        """The planner's torn-batch check: a generation changing while a
        fused batch plans raises StaleGenerationError and memoises nothing."""
        planner = fresh_factory()()
        self._retrain_mid_plan(planner, monkeypatch)
        histories, objectives, users = zip(*replica_contexts)
        with pytest.raises(StaleGenerationError, match="generation changed"):
            planner.plan_paths_batch(histories, objectives, users)
        assert len(planner.plan_cache) == 0

    def test_generation_guard_single_plan_path(self, fresh_factory, monkeypatch):
        """A batch of one (``plan_path`` / ``next_step``) is guarded too, and
        a generation that holds plans as before."""
        planner = fresh_factory()()
        expected = planner.plan_path([1, 2], 3)
        planner.invalidate_caches()
        self._retrain_mid_plan(planner, monkeypatch, bump=False)
        assert planner.plan_path([1, 2], 3) == expected
        planner.invalidate_caches()
        self._retrain_mid_plan(planner, monkeypatch)
        with pytest.raises(StaleGenerationError, match="generation changed"):
            planner.plan_path([1, 2], 3)
