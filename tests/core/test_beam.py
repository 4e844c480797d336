"""Tests for the beam-search influence-path planner."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.base import influential_registry
from repro.core.beam import BeamSearchPlanner
from repro.core.influence_path import log_softmax_rows
from repro.core.irn import IRN
from repro.core.pim import MaskType
from repro.data.padding import PAD_INDEX
from repro.evaluation.protocol import sample_objectives
from repro.utils.exceptions import ConfigurationError
from tests.stub_sessions import StubSessions


@pytest.fixture(scope="module")
def tiny_irn(tiny_split):
    model = IRN(
        embedding_dim=16,
        user_dim=4,
        num_heads=2,
        num_layers=1,
        epochs=2,
        batch_size=32,
        max_sequence_length=20,
        mask_type=MaskType.PERSONALIZED,
        seed=0,
    )
    return model.fit(tiny_split)


@pytest.fixture(scope="module")
def planner(tiny_irn, tiny_split):
    return BeamSearchPlanner(tiny_irn, beam_width=3, branch_factor=3).fit(tiny_split)


class TestConfiguration:
    def test_registered(self):
        assert influential_registry.get("beam") is BeamSearchPlanner

    def test_a_backbone_without_decoding_sessions_is_refused(self, tiny_irn):
        """Sessions are the planner's only way to score: a backbone with the
        batched and scalar scorers but no sessions is refused up front."""

        class _ScorersOnly:
            score_with_objective = tiny_irn.score_with_objective
            score_with_objective_batch = tiny_irn.score_with_objective_batch

        with pytest.raises(ConfigurationError, match="decoding sessions"):
            BeamSearchPlanner(_ScorersOnly())

        class _BeginOnly(_ScorersOnly):
            begin_decoding_session = tiny_irn.begin_decoding_session

        with pytest.raises(ConfigurationError, match="decoding sessions"):
            BeamSearchPlanner(_BeginOnly())

    def test_invalid_beam_parameters(self, tiny_irn):
        with pytest.raises(ConfigurationError):
            BeamSearchPlanner(tiny_irn, beam_width=0)
        with pytest.raises(ConfigurationError):
            BeamSearchPlanner(tiny_irn, branch_factor=0)
        with pytest.raises(ConfigurationError):
            BeamSearchPlanner(tiny_irn, objective_bonus=-0.5)

    def test_fit_requires_fitted_backbone(self, tiny_split):
        unfitted = IRN(epochs=1)
        with pytest.raises(ConfigurationError):
            BeamSearchPlanner(unfitted).fit(tiny_split)

    def test_name_derives_from_backbone(self, planner):
        assert planner.name == "IRN-beam"


class TestPlanning:
    def test_plan_respects_max_length(self, planner, tiny_split):
        instance = tiny_split.test[0]
        path = planner.plan_path(list(instance.history), instance.target, max_length=6)
        assert len(path) <= 6

    def test_plan_has_no_repeats_except_objective(self, planner, tiny_split):
        instance = tiny_split.test[1]
        path = planner.plan_path(list(instance.history), instance.target, max_length=10)
        non_objective = [item for item in path if item != instance.target]
        assert len(non_objective) == len(set(non_objective))
        for item in non_objective:
            assert item not in instance.history

    def test_objective_terminates_path(self, planner, tiny_split):
        instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=6)
        for instance in instances:
            path = planner.plan_path(list(instance.history), instance.objective, max_length=10)
            if instance.objective in path:
                assert path[-1] == instance.objective

    def test_invalid_max_length(self, planner):
        with pytest.raises(ConfigurationError):
            planner.plan_path([1, 2], 3, max_length=0)

    @pytest.mark.parametrize(
        "shortlist, expected",
        [(None, [1, 2, 5]), ([0, 1, 2, 5, 7], [1, 2, 7])],
        ids=["exact", "shortlist"],
    )
    def test_the_padding_item_is_never_planned(self, shortlist, expected):
        """A backbone that leaves column 0 finite: uniform scores used to
        plan ``[0, 1, 2]``, the padding item first (lowest index wins ties);
        a shortlist holding it must not bring it back."""

        class _Flat(StubSessions):
            corpus = SimpleNamespace(vocab=SimpleNamespace(size=9))

            def score_rows(self, sequences, objectives, user_indices):
                return np.zeros((len(sequences), 9))

        class _Fixed:
            def candidates_batch(self, histories, objectives, user_indices):
                return [np.asarray(shortlist) for _ in histories]

        generator = None if shortlist is None else _Fixed()
        flat = BeamSearchPlanner(
            _Flat(), beam_width=2, branch_factor=2, max_length=3, candidate_generator=generator
        )
        flat.corpus = _Flat.corpus
        plans = flat.plan_paths_batch([[3, 4]], [7])
        assert all(PAD_INDEX not in path for path in plans)
        assert plans == [expected]

    def test_generate_path_matches_plan_path(self, planner, tiny_split):
        instance = tiny_split.test[2]
        plan = planner.plan_path(
            list(instance.history), instance.target, user_index=instance.user_index, max_length=8
        )
        generated = planner.generate_path(
            list(instance.history), instance.target, user_index=instance.user_index, max_length=8
        )
        assert generated == plan

    def test_next_step_serves_planned_path(self, planner, tiny_split):
        instance = tiny_split.test[3]
        history = list(instance.history)
        plan = planner.plan_path(
            history, instance.target, user_index=instance.user_index, max_length=20
        )
        if plan:
            first = planner.next_step(history, instance.target, [], user_index=instance.user_index)
            assert first == plan[0]
            if len(plan) >= 2:
                second = planner.next_step(
                    history, instance.target, [plan[0]], user_index=instance.user_index
                )
                assert second == plan[1]

    def test_reaches_at_least_as_often_as_greedy(self, planner, tiny_irn, tiny_split):
        instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=8)
        beam_reached = greedy_reached = 0
        for instance in instances:
            beam_path = planner.plan_path(
                list(instance.history),
                instance.objective,
                user_index=instance.user_index,
                max_length=12,
            )
            greedy_path = tiny_irn.generate_path(
                list(instance.history),
                instance.objective,
                user_index=instance.user_index,
                max_length=12,
            )
            beam_reached += int(instance.objective in beam_path)
            greedy_reached += int(instance.objective in greedy_path)
        # Beam search explores a superset of the greedy trajectory plus a
        # completion bonus, so it should not reach the objective less often
        # (allow one instance of slack for tie-breaking noise).
        assert beam_reached >= greedy_reached - 1

    def test_log_softmax_normalises(self):
        log_probs = log_softmax_rows(np.array([[-np.inf, 1.0, 2.0, 0.5]]))[0]
        assert log_probs[0] == -np.inf
        assert np.exp(log_probs[1:]).sum() == pytest.approx(1.0)
