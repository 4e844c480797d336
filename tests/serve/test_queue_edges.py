"""Queue edge cases named by the issue: empty drain, single-request
micro-batch, a ``fit_generation`` bump racing queued requests (must replan,
not serve a stale cache), and back-pressure rejection ordering."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.serve import ServingLoop
from repro.serve.admission import AdmissionController
from repro.serve.queue import RequestQueue
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ConfigurationError, QueueFullError, ServingError

MAX_LENGTH = 5  # keep in sync with tests/serve/conftest.py


class TestEmptyDrain:
    def test_pop_all_on_empty_queue_returns_empty_batch(self):
        queue = RequestQueue(AdmissionController(max_queue_depth=4))
        assert queue.pop_all() == []
        assert queue.stats()["empty_drains"] == 1
        assert queue.stats()["micro_batches"] == 0

    def test_empty_batch_is_a_noop_downstream(self, make_planner):
        planner = make_planner()
        assert planner.plan_for_requests([]) == []
        loop = ServingLoop(planner)
        loop._serve_batch([])  # must not touch the planner or the stats
        assert loop.stats()["served"] == 0

    def test_start_close_without_requests_is_clean(self, make_planner):
        with ServingLoop(make_planner()) as loop:
            pass
        assert loop.stats()["served"] == 0
        # Idempotent close, and the drain thread is gone.
        loop.close()
        assert not loop._thread.is_alive()


class TestSingleRequestMicroBatch:
    def test_single_request_matches_direct_next_step(
        self, make_planner, serve_contexts
    ):
        history, objective, user = serve_contexts[0]
        expected = make_planner().next_step(history, objective, [], user_index=user)
        planner = make_planner()
        with ServingLoop(planner) as loop:
            future = loop.enqueue(
                ServeRequest.create("next_step", history, objective, [], user_index=user)
            )
            assert future.result() == expected
            stats = loop.stats()
        assert stats["served"] == 1
        assert stats["micro_batches"]["count"] == 1
        assert stats["micro_batches"]["max_size"] == 1


class TestFitGenerationRace:
    def test_queued_request_replans_after_refit(self, tiny_split, serve_contexts):
        """A request admitted before a backbone retrain must be answered by a
        replan against the new generation, never from the stale caches."""
        irn = IRN(
            embedding_dim=16, user_dim=4, num_heads=2, num_layers=1,
            epochs=1, batch_size=32, max_sequence_length=50, seed=0,
        ).fit(tiny_split)
        planner = BeamSearchPlanner(irn, max_length=MAX_LENGTH).fit(tiny_split)
        history, objective, user = serve_contexts[0]
        # Warm every cache for the context, then ask for a step on a path
        # that DIVERGED from the resident plan: a miss, which queues (a step
        # the plan answers would be served at admission and never wait).
        first = planner.next_step(history, objective, [], user_index=user)
        assert len(planner._step_cache) == 1
        diverged = [history[0]]
        assert diverged != [first]
        replans_before = planner.cache_info()["serving"]["replans"]

        loop = ServingLoop(planner)  # not started: the request sits queued
        future = loop.enqueue(
            ServeRequest.create("next_step", history, objective, diverged, user_index=user)
        )
        assert not future.done() and loop.current_depth() == 1
        irn.fit(tiny_split)  # fit_generation bump while the request is queued
        loop.start()
        item = future.result()
        loop.close()

        info = planner.cache_info()
        # The bump was honoured: the drain invalidated and replanned instead
        # of serving the pre-retrain plan.
        assert info["serving"]["replans"] == replans_before + 1
        assert planner.plan_cache.invalidations >= 1
        assert planner._backbone_generation == irn.fit_generation
        # Same data + same seed retrains to the same model, so the replanned
        # answer must equal a fresh planner's (proving it is a real plan,
        # not a dropped request).
        fresh = BeamSearchPlanner(irn, max_length=MAX_LENGTH).fit(tiny_split)
        assert item == fresh.next_step(history, objective, diverged, user_index=user)

    def test_resident_step_sees_a_refit_at_admission(self, tiny_split, serve_contexts):
        """The admission lane runs the same generation guard as the drain: a
        step whose plan was resident BEFORE a retrain is not answered from
        the stale plan — the probe invalidates, misses, and the drain
        replans."""
        irn = IRN(
            embedding_dim=16, user_dim=4, num_heads=2, num_layers=1,
            epochs=1, batch_size=32, max_sequence_length=50, seed=0,
        ).fit(tiny_split)
        planner = BeamSearchPlanner(irn, max_length=MAX_LENGTH).fit(tiny_split)
        history, objective, user = serve_contexts[0]
        planner.next_step(history, objective, [], user_index=user)
        replans_before = planner.cache_info()["serving"]["replans"]
        irn.fit(tiny_split)
        with ServingLoop(planner) as loop:
            future = loop.enqueue(
                ServeRequest.create("next_step", history, objective, [], user_index=user)
            )
            future.result()
            stats = loop.stats()
        assert stats["resident"] == 0 and stats["served"] == 1
        assert planner.cache_info()["serving"]["replans"] == replans_before + 1
        assert planner.plan_cache.invalidations >= 1


class TestBackPressure:
    def test_rejection_ordering_preserves_admitted_fifo(
        self, make_planner, serve_contexts
    ):
        """Requests beyond the depth bound are rejected; the admitted ones
        are still served, in order, with sequential-identical answers."""
        reference = make_planner()
        expected = [
            reference.next_step(history, objective, [], user_index=user)
            for history, objective, user in serve_contexts[:2]
        ]
        planner = make_planner()
        loop = ServingLoop(planner, max_queue_depth=2, admission_policy="reject")
        admitted = [
            loop.enqueue(
                ServeRequest.create("next_step", history, objective, [], user_index=user)
            )
            for history, objective, user in serve_contexts[:2]
        ]
        rejected_contexts = serve_contexts[2:4]
        for history, objective, user in rejected_contexts:
            with pytest.raises(QueueFullError, match="full"):
                loop.enqueue(
                    ServeRequest.create("next_step", history, objective, [], user_index=user)
                )
        stats = loop.stats()
        assert stats["admission"]["admitted"] == 2
        assert stats["admission"]["rejected"] == 2
        loop.start()
        assert [future.result() for future in admitted] == expected
        loop.close()
        # Rejected requests never entered a queue: nothing extra was served.
        assert loop.stats()["served"] == 2

    def test_block_policy_waits_for_drain(self, make_planner, serve_contexts):
        planner = make_planner()
        loop = ServingLoop(planner, max_queue_depth=1, admission_policy="block")
        history, objective, user = serve_contexts[0]
        first = loop.enqueue(
            ServeRequest.create("next_step", history, objective, [], user_index=user)
        )
        blocked_future = {}

        def producer():
            history2, objective2, user2 = serve_contexts[1]
            blocked_future["value"] = loop.enqueue(
                ServeRequest.create("next_step", history2, objective2, [], user_index=user2)
            )

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)
        assert thread.is_alive()  # back-pressure is holding the producer
        assert loop.stats()["admission"]["blocked"] >= 1
        loop.start()  # draining frees the slot and unblocks the producer
        thread.join(timeout=5)
        assert not thread.is_alive()
        first.result()  # the queued request resolved once drained
        assert blocked_future["value"].result() == make_planner().next_step(
            serve_contexts[1][0], serve_contexts[1][1], [], user_index=serve_contexts[1][2]
        )
        loop.close()

    def test_next_step_max_length_rejected_at_submit(
        self, make_planner, serve_contexts
    ):
        """The override is rejected synchronously at admission — inside a
        drained micro-batch it would fail every batched future, not just the
        misbehaving caller's."""
        history, objective, user = serve_contexts[0]
        with ServingLoop(make_planner()) as loop:
            with pytest.raises(ConfigurationError, match="max_length"):
                loop.enqueue(
                    ServeRequest.create("next_step", history, objective, user_index=user, max_length=3)
                )

    def test_bad_plan_paths_horizon_rejected_at_submit(
        self, make_planner, serve_contexts
    ):
        """A non-positive plan_paths horizon is also an admission-time error:
        admitted, it would ConfigurationError inside the drain and poison
        every co-batched future."""
        history, objective, user = serve_contexts[0]
        with ServingLoop(make_planner()) as loop:
            with pytest.raises(ConfigurationError, match="positive"):
                loop.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user, max_length=0)
                )
            with pytest.raises(ConfigurationError, match="integer"):
                loop.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user, max_length="deep")
                )
            # An innocent co-submitted request still serves normally.
            future = loop.enqueue(
                ServeRequest.create("plan_paths", history, objective, user_index=user)
            )
            assert future.result() == make_planner().plan_path(
                history, objective, user_index=user
            )

    def test_a_negative_user_is_rejected_at_create(self):
        """The wire encodes "no user" as -1 and decodes every negative as
        ``None``: admitted, a negative user would key its routing, step
        cache and tenant assignment on -1 in process and on ``None`` in a
        worker."""
        with pytest.raises(ConfigurationError, match="user_index"):
            ServeRequest.create("next_step", [1, 2], 3, user_index=-1)
        assert ServeRequest.create("next_step", [1, 2], 3, user_index=0).user_index == 0

    @pytest.mark.parametrize("kind", ["plan_path", "rank", "kg_path"])
    def test_a_kind_is_spelled_one_way(self, kind):
        """``next_step`` and ``plan_paths``, the two things the IRS plans,
        are the only kinds; no other spelling and no ranking or
        knowledge-graph path kind is admitted."""
        with pytest.raises(ConfigurationError, match="next_step, plan_paths"):
            ServeRequest.create(kind, [1, 2], 3)

    def test_submit_after_close_raises(self, make_planner, serve_contexts):
        """Both lanes refuse after close(): a step a resident plan would
        answer is NOT answered (admission checks closed atomically with
        close()), and a request that would queue is refused by its queue."""
        planner = make_planner()
        loop = ServingLoop(planner).start()
        history, objective, user = serve_contexts[0]
        loop.enqueue(
            ServeRequest.create("next_step", history, objective, [], user_index=user)
        ).result()
        served = loop.stats()["served"]
        loop.close()
        resident = ServeRequest.create("next_step", history, objective, [], user_index=user)
        queued = ServeRequest.create("plan_paths", history, objective, user_index=user)
        for request in (resident, queued):
            with pytest.raises(ServingError, match="closed"):
                loop.enqueue(request)
            assert not request.future.done()
        assert loop.stats()["served"] == served

    def test_expired_deadline_is_rejected_before_it_takes_a_queue_slot(
        self, make_planner, serve_contexts
    ):
        history, objective, user = serve_contexts[0]
        loop = ServingLoop(make_planner())  # not started: nothing drains
        late = ServeRequest.create(
            "next_step", history, objective, user_index=user,
            deadline=time.perf_counter() - 0.25,
        )
        with pytest.raises(QueueFullError, match="deadline expired"):
            loop.enqueue(late)
        on_time = ServeRequest.create(
            "next_step", history, objective, user_index=user,
            deadline=time.perf_counter() + 60.0,
        )
        loop.enqueue(on_time)
        assert loop.current_depth() == 1
        loop.close()
        stats = loop.stats()
        assert stats["admission"]["expired"] == 1
        assert stats["admission"]["rejected"] == 0
        assert stats["admission"]["admitted"] == stats["served"] == 1
        assert not late.future.done() and on_time.future.done()

    def test_a_request_that_expires_while_queued_is_refused_before_planning(
        self, make_planner, serve_contexts
    ):
        """A short-deadline step queued behind a replan the planner is still
        working on is refused before its batch plans (the planner never sees
        its context); a request without a deadline in the same batch is
        planned as usual."""

        class GatedRecorder:
            """A planner whose first call holds at a gate; records contexts."""

            def __init__(self, planner) -> None:
                self.planner = planner
                self.seen: list = []
                self.entered = threading.Event()
                self.gate = threading.Event()

            def plan_for_requests(self, requests):
                self.seen.extend((request.history, request.objective) for request in requests)
                self.entered.set()
                assert self.gate.wait(timeout=10)
                return self.planner.plan_for_requests(requests)

        recorder = GatedRecorder(make_planner())
        (h0, o0, u0), (h1, o1, u1), (h2, o2, u2) = serve_contexts[:3]
        with ServingLoop(recorder, drain_deadline=0.0) as loop:
            loop.enqueue(ServeRequest.create("plan_paths", h0, o0, user_index=u0))
            assert recorder.entered.wait(timeout=10)  # the drain is held mid-plan
            short = ServeRequest.create(
                "next_step", h1, o1, user_index=u1, deadline=time.perf_counter() + 0.05
            )
            patient = ServeRequest.create("next_step", h2, o2, user_index=u2)
            loop.enqueue(short)
            loop.enqueue(patient)
            time.sleep(0.1)  # the short deadline passes while both are queued
            recorder.gate.set()
            with pytest.raises(QueueFullError, match="deadline expired"):
                short.future.result(timeout=10)
            assert patient.future.result(timeout=10) == make_planner().next_step(
                h2, o2, [], user_index=u2
            )
            stats = loop.stats()
        assert (tuple(h1), o1) not in recorder.seen
        assert (tuple(h2), o2) in recorder.seen
        assert stats["admission"]["expired"] == 1
        assert stats["admission"]["rejected"] == 0
        assert stats["served"] == 2

    def test_a_batch_that_expired_whole_never_reaches_the_planner(
        self, make_planner, serve_contexts
    ):
        class Recorder:
            def __init__(self, planner) -> None:
                self.planner = planner
                self.calls = 0

            def plan_for_requests(self, requests):
                self.calls += 1
                return self.planner.plan_for_requests(requests)

        recorder = Recorder(make_planner())
        loop = ServingLoop(recorder)  # not started: close() drains inline
        requests = [
            ServeRequest.create(
                "next_step", history, objective, user_index=user,
                deadline=time.perf_counter() + 0.25,
            )
            for history, objective, user in serve_contexts[:3]
        ]
        for request in requests:
            loop.enqueue(request)
        time.sleep(0.35)
        loop.close()
        assert recorder.calls == 0
        for request in requests:
            with pytest.raises(QueueFullError, match="deadline expired"):
                request.future.result(timeout=0)
        stats = loop.stats()
        assert stats["admission"]["expired"] == 3
        assert stats["admission"]["rejected"] == 0
        assert stats["served"] == 0

    def test_a_refused_step_hands_back_its_pending_replan_entry(
        self, make_planner, serve_contexts
    ):
        """While a step of a context is queued, later steps of it queue
        behind it; once the queued one is refused for its deadline, the
        context must not stay marked as waiting for a replan."""
        history, objective, user = serve_contexts[0]
        loop = ServingLoop(make_planner())  # not started: close() drains inline
        expiring = ServeRequest.create(
            "next_step", history, objective, user_index=user,
            deadline=time.perf_counter() + 0.25,
        )
        loop.enqueue(expiring)
        assert loop._pending == {expiring.routing_key(): 1}
        time.sleep(0.35)
        loop.close()
        with pytest.raises(QueueFullError, match="deadline expired"):
            expiring.future.result(timeout=0)
        assert loop._pending == {}

    def test_close_before_start_serves_pending_inline(
        self, make_planner, serve_contexts
    ):
        reference = make_planner()
        planner = make_planner()
        loop = ServingLoop(planner)
        futures = [
            loop.enqueue(
                ServeRequest.create("next_step", history, objective, [], user_index=user)
            )
            for history, objective, user in serve_contexts[:3]
        ]
        loop.close()  # never started: pending requests must still resolve
        assert [future.result() for future in futures] == [
            reference.next_step(history, objective, [], user_index=user)
            for history, objective, user in serve_contexts[:3]
        ]


class TestDuplicateContextWaves:
    def test_same_context_twice_in_one_batch_matches_sequential(
        self, make_planner, serve_contexts
    ):
        """plan_for_requests defers a duplicate serving context to a second
        wave, so the second request sees the first's cache effects exactly
        like sequential execution."""
        history, objective, user = serve_contexts[0]
        reference = make_planner()
        first_expected = reference.next_step(history, objective, [], user_index=user)
        second_expected = reference.next_step(
            history, objective, [first_expected], user_index=user
        )
        planner = make_planner()
        results = planner.plan_for_requests(
            [
                ServeRequest.create("next_step", history, objective, [], user_index=user),
                ServeRequest.create(
                    "next_step", history, objective, [first_expected], user_index=user
                ),
            ]
        )
        assert results == [first_expected, second_expected]

    def test_request_queue_single_slot_fifo(self):
        admission = AdmissionController(max_queue_depth=8, drain_deadline=0.0)
        queue = RequestQueue(admission)
        for index in range(3):
            queue.put(ServeRequest.create("next_step", [1, 2], 3 + index))
        batch = queue.collect()
        assert [request.objective for request in batch] == [3, 4, 5]
        assert queue.stats()["depth"] == 0
        assert queue.stats()["micro_batch_max"] == 3
