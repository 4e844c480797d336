"""End-to-end parity of a serving loop at one generation, across refits.

Mirror of ``tests/serve``'s parity suite with a hot refit in the middle:
:meth:`ServingLoop.refit <repro.serve.loop.ServingLoop.refit>` to a planner
with the same weights answers bit-identically to sequential serving on both
sides of the flip.  The refit changes *which* model answers and the
generation stamped on it, never what a generation answers.  The process
fleet's parity suite is ``tests/distributed``.
"""

from __future__ import annotations

import pytest

from repro.serve import ServingLoop, replay_lockstep
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ServingError

MAX_LENGTH = 5  # keep in sync with tests/replica/conftest.py


class TestRefitParity:
    def test_lockstep_replay_bit_identical(
        self, make_factory, replica_contexts, sequential_paths
    ):
        factory = make_factory()
        with ServingLoop(factory()) as loop:
            before = replay_lockstep(loop, replica_contexts, MAX_LENGTH)
            loop.refit(factory)
            after = replay_lockstep(loop, replica_contexts, MAX_LENGTH)
        assert before == after == sequential_paths

    def test_plan_paths_futures_match_plan_path(self, make_factory, replica_contexts):
        factory = make_factory()
        reference = factory()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in replica_contexts
        ]
        with ServingLoop(factory()) as loop:
            loop.refit(factory)
            requests = [
                ServeRequest.create("plan_paths", history, objective, user_index=user)
                for history, objective, user in replica_contexts
            ]
            futures = [loop.enqueue(request) for request in requests]
            assert [future.result() for future in futures] == expected
        assert {request.served_generation for request in requests} == {2}

    def test_mixed_kind_submissions_match_sequential(
        self, make_factory, replica_contexts
    ):
        factory = make_factory()
        reference = factory()
        with ServingLoop(factory()) as loop:
            loop.refit(factory)
            next_futures = [
                loop.enqueue(
                    ServeRequest.create("next_step", history, objective, [], user_index=user)
                )
                for history, objective, user in replica_contexts
            ]
            plan_futures = [
                loop.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in replica_contexts
            ]
            next_items = [future.result() for future in next_futures]
            plans = [future.result() for future in plan_futures]
        assert next_items == [
            reference.next_step(history, objective, [], user_index=user)
            for history, objective, user in replica_contexts
        ]
        assert plans == [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in replica_contexts
        ]

    def test_every_session_replans_once_on_the_new_generation(
        self, make_factory, replica_contexts
    ):
        """The new planner holds no plan of the old one: each context's
        first step after the flip is a replan at generation 2, its later
        steps resident again."""
        factory = make_factory()
        with ServingLoop(factory()) as loop:
            replay_lockstep(loop, replica_contexts, MAX_LENGTH)
            resident_before = loop.stats()["resident"]
            loop.refit(factory)
            first = [
                ServeRequest.create("next_step", history, objective, user_index=user)
                for history, objective, user in replica_contexts
            ]
            for request in first:
                loop.enqueue(request).result()
            assert loop.stats()["resident"] == resident_before
            again = [
                ServeRequest.create("next_step", history, objective, user_index=user)
                for history, objective, user in replica_contexts
            ]
            for request in again:
                loop.enqueue(request).result()
            stats = loop.stats()
        assert {request.served_generation for request in first + again} == {2}
        assert stats["resident"] == resident_before + len(again)

    def test_stats_keep_counting_across_a_refit(self, make_factory, replica_contexts):
        factory = make_factory()
        with ServingLoop(factory()) as loop:
            replay_lockstep(loop, replica_contexts, MAX_LENGTH)
            before = loop.stats()
            loop.refit(factory)
            replay_lockstep(loop, replica_contexts, MAX_LENGTH)
            stats = loop.stats()
        assert (before["generation"], stats["generation"]) == (1, 2)
        assert stats["served"] > before["served"] > 0
        assert stats["admission"]["admitted"] == stats["served"]
        assert stats["micro_batches"]["count"] > before["micro_batches"]["count"]

    def test_enqueue_after_close_raises(self, make_factory, replica_contexts):
        factory = make_factory()
        loop = ServingLoop(factory())
        loop.start()
        loop.refit(factory)
        loop.close()
        history, objective, user = replica_contexts[0]
        with pytest.raises(ServingError):
            loop.enqueue(
                ServeRequest.create("next_step", history, objective, [], user_index=user)
            )
