"""Batched-vs-scalar parity tests for the fused inference engine.

The batched entry points (``score_with_objective_batch``, ``score_next_batch``,
``plan_paths_batch``, ``generate_paths_batch``, ``rank_of_batch``) must agree
with the scalar implementations they fuse — across ragged lengths, missing
user indices and empty histories — while issuing strictly fewer module
forwards.  Scores are compared under the documented floating-point tolerance
(batched rows run through padded BLAS calls whose summation order may differ
in the last ulps); plans and ranks must match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.influence_path import log_softmax_rows
from repro.core.irn import IRN
from repro.evaluation.protocol import sample_objectives

RTOL, ATOL = 1e-7, 1e-8


class ScalarOnlyBackbone:
    """Facade exposing only the scalar scoring API of a backbone.

    Hiding ``score_with_objective_batch`` forces :class:`BeamSearchPlanner`
    onto its per-hypothesis fallback, which reproduces the pre-batching
    planner (one module forward per hypothesis per depth): the oracle the
    batched beam must plan identically to.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = f"{getattr(inner, 'name', type(inner).__name__)}-scalar"

    @property
    def corpus(self):
        return self._inner.corpus

    def score_with_objective(self, sequence, objective, user_index=None) -> np.ndarray:
        return self._inner.score_with_objective(sequence, objective, user_index=user_index)

    @property
    def fit_generation(self):
        return getattr(self._inner, "fit_generation", None)


def forwards(irn: IRN, fn) -> int:
    """Forwards ``fn`` costs: ``decode_stats`` counts one per scoring call."""
    before = irn.decode_stats.snapshot()["forwards"]
    fn()
    return irn.decode_stats.snapshot()["forwards"] - before


@pytest.fixture(scope="module", params=[1, 2], ids=["1-layer", "2-layer"])
def irn(request, tiny_split):
    """The ``fast`` profile's model, and the same at the paper's two layers
    (whose decoding sessions share each root's history within a depth)."""
    model = IRN(
        embedding_dim=16,
        user_dim=4,
        num_heads=2,
        num_layers=request.param,
        epochs=1,
        batch_size=32,
        max_sequence_length=20,
        seed=0,
    )
    return model.fit(tiny_split)


@pytest.fixture(scope="module")
def ragged_cases(tiny_split):
    """(sequence, objective, user_index) cases across lengths and user modes."""
    test = tiny_split.test
    return [
        ([], 5, 0),  # empty history
        ([3], 7, None),  # singleton, no user
        (list(test[0].history), test[0].target, test[0].user_index),
        (list(test[1].history)[:4], test[1].target, None),
        (list(test[2].history) * 3, test[2].target, 10_000),  # long (clipped), unknown user
        (list(test[3].history)[:9], test[3].target, test[3].user_index),
    ]


class TestObjectiveScoringParity:
    def test_batch_matches_stacked_scalar(self, irn, ragged_cases):
        sequences = [case[0] for case in ragged_cases]
        objectives = [case[1] for case in ragged_cases]
        users = [case[2] for case in ragged_cases]
        batched = irn.score_with_objective_batch(sequences, objectives, users)
        stacked = np.stack(
            [
                irn.score_with_objective(seq, obj, user_index=user)
                for seq, obj, user in ragged_cases
            ]
        )
        assert batched.shape == stacked.shape
        np.testing.assert_allclose(batched, stacked, rtol=RTOL, atol=ATOL)

    def test_batch_without_user_indices(self, irn, ragged_cases):
        sequences = [case[0] for case in ragged_cases]
        objectives = [case[1] for case in ragged_cases]
        batched = irn.score_with_objective_batch(sequences, objectives)
        stacked = np.stack(
            [irn.score_with_objective(seq, obj) for seq, obj in zip(sequences, objectives)]
        )
        np.testing.assert_allclose(batched, stacked, rtol=RTOL, atol=ATOL)

    def test_empty_batch(self, irn, tiny_split):
        scores = irn.score_with_objective_batch([], [])
        assert scores.shape == (0, tiny_split.corpus.vocab.size)

    def test_single_batch_uses_one_forward(self, irn, ragged_cases):
        sequences = [case[0] for case in ragged_cases]
        objectives = [case[1] for case in ragged_cases]
        assert forwards(irn, lambda: irn.score_with_objective_batch(sequences, objectives)) == 1


class TestNextItemScoringParity:
    def test_batch_matches_stacked_scalar(self, irn, ragged_cases):
        histories = [case[0] for case in ragged_cases]
        users = [case[2] for case in ragged_cases]
        batched = irn.score_next_batch(histories, users)
        stacked = np.stack(
            [irn.score_next(history, user) for history, user in zip(histories, users)]
        )
        np.testing.assert_allclose(batched, stacked, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("with_users", [True, False], ids=["users", "no-users"])
    def test_rank_of_batch_matches_scalar(self, irn, tiny_split, with_users):
        instances = tiny_split.test[:8]
        users = [inst.user_index if with_users else None for inst in instances]
        batched = irn.rank_of_batch(
            [list(inst.history) for inst in instances],
            [inst.target for inst in instances],
            users if with_users else None,
        )
        scalar = [
            irn.rank_of(list(inst.history), inst.target, user_index=user)
            for inst, user in zip(instances, users)
        ]
        assert batched == scalar


class TestGreedyRolloutParity:
    # 16 steps outgrow the 20-token window mid-rollout: rows slide it apart
    @pytest.mark.parametrize("max_length", [1, 8, 16])
    def test_lockstep_paths_match_scalar_loop(self, irn, tiny_split, max_length):
        instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=8)
        batched = irn.generate_paths_batch(
            [list(inst.history) for inst in instances],
            [inst.objective for inst in instances],
            [inst.user_index for inst in instances],
            max_length=max_length,
        )
        scalar = [
            irn.generate_path(
                list(inst.history),
                inst.objective,
                user_index=inst.user_index,
                max_length=max_length,
            )
            for inst in instances
        ]
        assert batched == scalar

    def test_lockstep_uses_fewer_forwards(self, irn, tiny_split):
        instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=6)
        histories = [list(inst.history) for inst in instances]
        objectives = [inst.objective for inst in instances]
        scalar = forwards(
            irn,
            lambda: [
                irn.generate_path(history, objective, max_length=6)
                for history, objective in zip(histories, objectives)
            ],
        )
        batched = forwards(
            irn, lambda: irn.generate_paths_batch(histories, objectives, max_length=6)
        )
        assert batched < scalar


class TestBeamParity:
    @pytest.fixture(scope="class")
    def planners(self, irn, tiny_split):
        batched = BeamSearchPlanner(irn, beam_width=4, branch_factor=4).fit(tiny_split)
        scalar = BeamSearchPlanner(
            ScalarOnlyBackbone(irn), beam_width=4, branch_factor=4
        ).fit(tiny_split)
        return batched, scalar

    # width 1; branching wider and narrower than the beam; and a branch
    # factor past ARGMAX_ROUNDS, where stable_topk partitions instead
    @pytest.mark.parametrize("beam_width,branch_factor", [(1, 1), (2, 5), (4, 4), (5, 2), (9, 9)])
    def test_plans_identical_to_scalar_expansion(
        self, irn, tiny_split, beam_width, branch_factor
    ):
        shape = dict(beam_width=beam_width, branch_factor=branch_factor)
        batched = BeamSearchPlanner(irn, **shape).fit(tiny_split)
        scalar = BeamSearchPlanner(ScalarOnlyBackbone(irn), **shape).fit(tiny_split)
        instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=6)
        for inst in instances:
            plan_batched = batched.plan_path(
                list(inst.history), inst.objective, user_index=inst.user_index, max_length=8
            )
            plan_scalar = scalar.plan_path(
                list(inst.history), inst.objective, user_index=inst.user_index, max_length=8
            )
            assert plan_batched == plan_scalar

    def test_lockstep_plan_paths_batch_matches_per_instance(self, planners, tiny_split):
        batched, _ = planners
        instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=6)
        fused = batched.plan_paths_batch(
            [list(inst.history) for inst in instances],
            [inst.objective for inst in instances],
            [inst.user_index for inst in instances],
            max_length=8,
        )
        individual = [
            batched.plan_path(
                list(inst.history), inst.objective, user_index=inst.user_index, max_length=8
            )
            for inst in instances
        ]
        assert fused == individual

    def test_beam_width_4_uses_4x_fewer_forwards(self, planners, irn, tiny_split):
        batched, scalar = planners
        instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=6)
        histories = [list(inst.history) for inst in instances]
        objectives = [inst.objective for inst in instances]
        users = [inst.user_index for inst in instances]
        scalar_forwards = forwards(
            irn,
            lambda: [
                scalar.plan_path(history, objective, user_index=user, max_length=8)
                for history, objective, user in zip(histories, objectives, users)
            ],
        )
        batched_forwards = forwards(
            irn, lambda: batched.plan_paths_batch(histories, objectives, users, max_length=8)
        )
        assert batched_forwards * 4 <= scalar_forwards


class TestBatchValidation:
    def test_mismatched_lengths_raise(self, irn):
        from repro.utils.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            irn.score_with_objective_batch([[1, 2], [3]], [5])
        with pytest.raises(ConfigurationError):
            irn.score_with_objective_batch([[1, 2]], [5], [0, 1])
        with pytest.raises(ConfigurationError):
            irn.generate_paths_batch([[1], [2]], [5, 6], user_indices=[0], max_length=4)
        with pytest.raises(ConfigurationError):
            irn.rank_of_batch([[1], [2]], [3])


class TestTopKTieBreaking:
    def test_boundary_ties_keep_lowest_indices(self, tiny_split):
        """argpartition may admit any tied index at the k-th boundary; the
        repair pass must restore the scalar stable-argsort choice (lowest)."""
        vocab = tiny_split.corpus.vocab.size
        scores = np.full(vocab, -np.inf)
        # Three clear winners and a three-way tie for the final (4th) slot.
        scores[[2, 5, 9]] = [3.0, 2.5, 2.0]
        scores[[11, 17, 23]] = 1.0

        class _TiedBackbone:
            corpus = tiny_split.corpus

            def score_with_objective(self, sequence, objective, user_index=None):
                return scores

            def score_with_objective_batch(self, sequences, objectives, user_indices):
                return np.tile(scores, (len(sequences), 1))

        planner = BeamSearchPlanner(_TiedBackbone(), beam_width=4, branch_factor=4)
        planner.corpus = tiny_split.corpus
        items, values = planner._expand(
            planner._batched_scores([[]], [2], [None]), np.zeros((1, 0), dtype=np.int64), [2]
        )
        assert items[0][np.isfinite(values[0])].tolist() == [2, 5, 9, 11]  # argsort order


class TestLogSoftmaxEdgeCases:
    def test_all_masked_scores_return_neg_inf(self):
        """Satellite fix: an all ``-inf`` row must not crash on empty ``np.max``."""
        log_probs = log_softmax_rows(np.full((1, 7), -np.inf))
        assert np.all(np.isneginf(log_probs))

    def test_mixed_rows(self):
        rows = np.array([[-np.inf, 1.0, 2.0, 0.5], [-np.inf] * 4])
        log_probs = log_softmax_rows(rows)
        assert np.exp(log_probs[0, 1:]).sum() == pytest.approx(1.0)
        assert log_probs[0, 0] == -np.inf
        assert np.all(np.isneginf(log_probs[1]))


class TestProtocolIntegration:
    def test_generate_records_uses_batched_rollouts(self, irn, tiny_split, markov_evaluator):
        from repro.evaluation.protocol import IRSEvaluationProtocol

        protocol = IRSEvaluationProtocol(
            tiny_split,
            markov_evaluator,
            max_length=6,
            min_objective_interactions=2,
            max_instances=6,
        )
        records = protocol.generate_records(irn)
        assert len(records) == len(protocol.instances)
        expected = [
            tuple(
                irn.generate_path(
                    protocol._history_for(inst),
                    inst.objective,
                    user_index=inst.user_index,
                    max_length=6,
                )
            )
            for inst in protocol.instances
        ]
        assert [record.path for record in records] == expected
