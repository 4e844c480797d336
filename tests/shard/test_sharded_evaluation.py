"""Parity of the thread-partitioned offline evaluation.

The IRS evaluation protocol and the next-item evaluation produce
bit-identical records, ranks and metrics at any thread count.
"""

from __future__ import annotations

import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.evaluation.nextitem import evaluate_next_item
from repro.evaluation.protocol import IRSEvaluationProtocol
from repro.utils.exceptions import ConfigurationError

THREADS = [1, 2, 3, 4]


@pytest.fixture(scope="module")
def shard_irn(tiny_split):
    return IRN(
        embedding_dim=16,
        user_dim=4,
        num_heads=2,
        num_layers=1,
        epochs=1,
        batch_size=32,
        max_sequence_length=50,
        seed=0,
    ).fit(tiny_split)


class TestShardedProtocolParity:
    @pytest.fixture(scope="class")
    def protocols(self, tiny_split, markov_evaluator):
        def build(num_workers):
            return IRSEvaluationProtocol(
                tiny_split,
                markov_evaluator,
                max_length=4,
                min_objective_interactions=2,
                max_instances=8,
                num_workers=num_workers,
            )

        return build

    @pytest.fixture(scope="class")
    def shard_planner(self, shard_irn, tiny_split):
        return BeamSearchPlanner(shard_irn, max_length=4).fit(tiny_split)

    @pytest.mark.parametrize("num_workers", THREADS)
    def test_generate_records_parity(self, protocols, shard_planner, num_workers):
        shard_planner.invalidate_caches()
        serial = protocols(1).generate_records(shard_planner)
        shard_planner.invalidate_caches()
        threaded = protocols(num_workers).generate_records(shard_planner)
        assert threaded == serial

    @pytest.mark.parametrize("num_workers", THREADS)
    def test_generate_records_stepwise_parity(self, protocols, shard_planner, num_workers):
        shard_planner.invalidate_caches()
        serial = protocols(1).generate_records_stepwise(shard_planner)
        shard_planner.invalidate_caches()
        threaded = protocols(num_workers).generate_records_stepwise(shard_planner)
        assert threaded == serial

    def test_evaluate_metrics_identical(self, protocols, shard_planner):
        shard_planner.invalidate_caches()
        serial = protocols(1).evaluate(shard_planner)
        shard_planner.invalidate_caches()
        threaded = protocols(2).evaluate(shard_planner)
        assert threaded.as_row() == serial.as_row()

    def test_rollout_chunk_size_validated(self, tiny_split, markov_evaluator):
        with pytest.raises(ConfigurationError, match="rollout_chunk_size"):
            IRSEvaluationProtocol(tiny_split, markov_evaluator, rollout_chunk_size=0)

    def test_chunked_sharded_rollout_matches_unchunked(
        self, tiny_split, markov_evaluator, shard_planner
    ):
        shard_planner.invalidate_caches()
        unchunked = IRSEvaluationProtocol(
            tiny_split, markov_evaluator, max_length=4,
            min_objective_interactions=2, max_instances=8,
            rollout_chunk_size=64, num_workers=1,
        ).generate_records(shard_planner)
        shard_planner.invalidate_caches()
        chunked = IRSEvaluationProtocol(
            tiny_split, markov_evaluator, max_length=4,
            min_objective_interactions=2, max_instances=8,
            rollout_chunk_size=2, num_workers=2,
        ).generate_records(shard_planner)
        assert chunked == unchunked


class TestShardedNextItemParity:
    @pytest.mark.parametrize("num_workers", THREADS)
    def test_ranks_and_metrics_identical(self, fitted_markov, tiny_split, num_workers):
        serial = evaluate_next_item(fitted_markov, tiny_split, max_instances=20)
        threaded = evaluate_next_item(
            fitted_markov, tiny_split, max_instances=20, num_workers=num_workers
        )
        assert threaded == serial

    @pytest.mark.parametrize("num_workers", THREADS)
    def test_irn_backed_parity(self, shard_irn, tiny_split, num_workers):
        serial = evaluate_next_item(shard_irn, tiny_split, max_instances=12)
        threaded = evaluate_next_item(
            shard_irn, tiny_split, max_instances=12, num_workers=num_workers
        )
        assert threaded == serial
