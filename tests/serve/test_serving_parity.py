"""End-to-end parity of the asynchronous serving subsystem.

Acceptance contract of the async-serving rung: for fixed request traces,
``ServingLoop`` responses are bit-identical to sequential ``next_step`` /
``plan_path`` calls on the same planner configuration, at any drain
deadline.  Queueing and micro-batching change when the work happens, never
the answers.
"""

from __future__ import annotations

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.evaluation.protocol import rollout_next_step
from repro.serve import ServingLoop, replay_lockstep
from repro.serve.request import ServeRequest
from repro.utils.exceptions import ConfigurationError

MAX_LENGTH = 5  # keep in sync with tests/serve/conftest.py

#: report paths ``ReplicaSet.stats()`` and the e2e benchmark's traced run read
STATS_PATHS = [
    ("served",),
    ("resident",),
    ("queue_depth", "mean"),
    ("queue_depth", "max"),
    ("micro_batches", "count"),
    ("micro_batches", "max_size"),
    ("admission", "admitted"),
    ("admission", "blocked"),
    ("admission", "rejected"),
]


@pytest.fixture(scope="module")
def sequential_paths(serve_irn, tiny_split, serve_contexts):
    """The sequential-serving reference trace (fresh serial planner)."""
    planner = BeamSearchPlanner(serve_irn, max_length=MAX_LENGTH).fit(tiny_split)
    return rollout_next_step(planner, serve_contexts, MAX_LENGTH)


@pytest.fixture(scope="module")
def two_layer_irn(tiny_split):
    """The suite's backbone at the paper's two layers."""
    return IRN(
        embedding_dim=16,
        user_dim=4,
        num_heads=2,
        num_layers=2,
        epochs=1,
        batch_size=32,
        max_sequence_length=50,
        seed=0,
    ).fit(tiny_split)


class TestServingLoopParity:
    def test_lockstep_replay_bit_identical(
        self, make_planner, serve_contexts, sequential_paths
    ):
        with ServingLoop(make_planner()) as loop:
            served = replay_lockstep(loop, serve_contexts, MAX_LENGTH)
        assert served == sequential_paths

    @pytest.mark.parametrize("drain_deadline", [0.0, 0.005])
    def test_parity_across_drain_deadlines(
        self, make_planner, serve_contexts, sequential_paths, drain_deadline
    ):
        with ServingLoop(make_planner(), drain_deadline=drain_deadline) as loop:
            served = replay_lockstep(loop, serve_contexts, MAX_LENGTH)
        assert served == sequential_paths

    def test_plan_paths_futures_match_plan_path(self, make_planner, serve_contexts):
        reference = make_planner()
        expected = [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in serve_contexts
        ]
        with ServingLoop(make_planner()) as loop:
            futures = [
                loop.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in serve_contexts
            ]
            assert [future.result() for future in futures] == expected

    def test_mixed_kind_submissions_match_sequential(
        self, make_planner, serve_contexts, sequential_paths
    ):
        reference = make_planner()
        with ServingLoop(make_planner()) as loop:
            next_futures = [
                loop.enqueue(
                    ServeRequest.create("next_step", history, objective, [], user_index=user)
                )
                for history, objective, user in serve_contexts
            ]
            plan_futures = [
                loop.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in serve_contexts
            ]
            next_items = [future.result() for future in next_futures]
            plans = [future.result() for future in plan_futures]
        assert next_items == [
            reference.next_step(history, objective, [], user_index=user)
            for history, objective, user in serve_contexts
        ]
        assert plans == [
            reference.plan_path(history, objective, user_index=user)
            for history, objective, user in serve_contexts
        ]

    @pytest.mark.parametrize("drain_deadline", [0.0, 0.005])
    def test_two_layer_drains_answer_like_sequential_serving(
        self, two_layer_irn, tiny_split, serve_contexts, drain_deadline
    ):
        """At the paper's depth a drain plans its contexts in one
        shared-history pass per depth, over whatever batch the race formed:
        the batch changes no answer."""

        def planner():
            return BeamSearchPlanner(two_layer_irn, max_length=MAX_LENGTH).fit(tiny_split)

        sequential = rollout_next_step(planner(), serve_contexts, MAX_LENGTH)
        expected_plans = [
            planner().plan_path(history, objective, user_index=user)
            for history, objective, user in serve_contexts
        ]
        with ServingLoop(planner(), drain_deadline=drain_deadline) as loop:
            served = replay_lockstep(loop, serve_contexts, MAX_LENGTH)
        with ServingLoop(planner(), drain_deadline=drain_deadline) as loop:
            futures = [
                loop.enqueue(
                    ServeRequest.create("plan_paths", history, objective, user_index=user)
                )
                for history, objective, user in serve_contexts
            ]
            plans = [future.result() for future in futures]
        assert served == sequential
        assert plans == expected_plans

    def test_serving_stats_expose_micro_batching(self, make_planner, serve_contexts):
        planner = make_planner()
        with ServingLoop(planner, drain_deadline=0.01) as loop:
            replay_lockstep(loop, serve_contexts, MAX_LENGTH)
            stats = loop.stats()
        assert stats["served"] > 0
        assert stats["micro_batches"]["count"] >= 1
        # Lockstep rounds put many concurrent requests in the queue, so at
        # least one drain must have fused more than one request.
        assert stats["micro_batches"]["max_size"] > 1
        assert stats["queue_depth"]["max"] >= stats["micro_batches"]["max_size"]
        assert stats["service_latency"]["max_ms"] >= stats["service_latency"]["mean_ms"]

    @pytest.mark.parametrize("path", STATS_PATHS, ids=".".join)
    def test_stats_report_what_the_fleet_and_the_benchmark_read(
        self, make_planner, serve_contexts, path
    ):
        with ServingLoop(make_planner()) as loop:
            replay_lockstep(loop, serve_contexts, MAX_LENGTH)
            value = loop.stats()
        for key in path:
            value = value[key]
        assert isinstance(value, (int, float)) and value >= 0

    def test_the_one_queue_accounts_for_every_drained_request(
        self, make_planner, serve_contexts
    ):
        with ServingLoop(make_planner()) as loop:
            replay_lockstep(loop, serve_contexts, MAX_LENGTH)
            stats = loop.stats()
        (queue,) = stats["per_queue"]
        assert queue["micro_batch_requests"] > 0 and stats["resident"] > 0
        assert stats["served"] == stats["resident"] + queue["micro_batch_requests"]
        assert stats["micro_batches"]["count"] == queue["micro_batches"]
        assert stats["queue_depth"]["max"] == queue["depth_max"]
        assert queue["depth"] == 0

    def test_loop_requires_plan_for_requests(self):
        with pytest.raises(ConfigurationError, match="plan_for_requests"):
            ServingLoop(object())
