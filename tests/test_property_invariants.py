"""Property-based invariants across the extension modules.

These tests use hypothesis to explore the input space of the pure-data
components added on top of the reproduction: session metrics, objective sets,
path statistics and the beam hypothesis scoring.  They never train models, so
hundreds of examples stay fast — except the serving-order invariant at the
end, which fits one tiny backbone per module and runs fewer examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reports import path_length_statistics
from repro.core.beam import _hypothesis_scores
from repro.core.objectives import ItemSetObjective, SetPathRecord, set_success_rate
from repro.evaluation.protocol import PathRecord
from repro.simulation.metrics import aggregate_sessions
from repro.simulation.session import SessionResult, StepOutcome

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
steps_strategy = st.lists(
    st.tuples(st.integers(min_value=1, max_value=200), st.booleans()),
    min_size=0,
    max_size=25,
)


def _session_from(steps: list[tuple[int, bool]], objective: int = 999) -> SessionResult:
    result = SessionResult(user_index=0, history=(1, 2, 3), objective=objective)
    for index, (item, accepted) in enumerate(steps):
        result.steps.append(
            StepOutcome(step=index, item=item, accepted=accepted, acceptance_probability=0.5)
        )
    accepted_items = [item for item, accepted in steps if accepted]
    result.reached = objective in accepted_items
    return result


path_records_strategy = st.lists(
    st.builds(
        lambda history, path, objective: PathRecord(
            user_index=0, history=tuple(history), objective=objective, path=tuple(path)
        ),
        history=st.lists(st.integers(1, 100), min_size=1, max_size=10),
        path=st.lists(st.integers(1, 100), min_size=0, max_size=15),
        objective=st.integers(1, 100),
    ),
    min_size=1,
    max_size=10,
)


# --------------------------------------------------------------------------- #
# Session metrics
# --------------------------------------------------------------------------- #
class TestSessionMetricInvariants:
    @given(sessions=st.lists(steps_strategy, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_rates_stay_in_unit_interval(self, sessions):
        metrics = aggregate_sessions([_session_from(steps) for steps in sessions])
        assert 0.0 <= metrics.interactive_success_rate <= 1.0
        assert 0.0 <= metrics.acceptance_rate <= 1.0
        assert 0.0 <= metrics.abandonment_rate <= 1.0
        assert metrics.num_sessions == len(sessions)

    @given(sessions=st.lists(steps_strategy, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_accepted_items_never_exceed_steps(self, sessions):
        metrics = aggregate_sessions([_session_from(steps) for steps in sessions])
        assert metrics.mean_accepted_items <= metrics.mean_steps + 1e-9

    @given(steps=steps_strategy)
    @settings(max_examples=60, deadline=None)
    def test_acceptance_rate_matches_manual_count(self, steps):
        session = _session_from(steps)
        if steps:
            expected = sum(1 for _, accepted in steps if accepted) / len(steps)
            assert session.acceptance_rate == pytest.approx(expected)
        else:
            assert session.acceptance_rate == 0.0


# --------------------------------------------------------------------------- #
# Path statistics and objective sets
# --------------------------------------------------------------------------- #
class TestPathStatisticInvariants:
    @given(records=path_records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_reach_rate_bounds_and_lengths(self, records):
        statistics = path_length_statistics(records)
        assert 0.0 <= statistics["reach_rate"] <= 1.0
        assert 0.0 <= statistics["empty_paths"] <= 1.0
        assert statistics["mean_length"] >= 0.0
        max_length = max(len(record.path) for record in records)
        assert statistics["mean_length"] <= max_length + 1e-9

    @given(records=path_records_strategy)
    @settings(max_examples=60, deadline=None)
    def test_reach_rate_matches_record_property(self, records):
        statistics = path_length_statistics(records)
        expected = sum(1 for record in records if record.objective in record.path) / len(records)
        assert statistics["reach_rate"] == pytest.approx(expected)


class TestObjectiveSetInvariants:
    @given(
        members=st.lists(st.integers(1, 50), min_size=1, max_size=8),
        paths=st.lists(st.lists(st.integers(1, 50), min_size=0, max_size=10), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_set_success_rate_consistent_with_membership(self, members, paths):
        records = [
            SetPathRecord(
                user_index=0,
                history=(1,),
                objective_name="set",
                members=tuple(sorted(set(members))),
                resolved_targets=(members[0],),
                path=tuple(path),
            )
            for path in paths
        ]
        rate = set_success_rate(records)
        expected = sum(1 for record in records if set(record.members) & set(record.path)) / len(
            records
        )
        assert rate == pytest.approx(expected)
        assert 0.0 <= rate <= 1.0

    @given(items=st.lists(st.integers(1, 100), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_item_set_objective_canonicalises(self, items):
        objective = ItemSetObjective(items)
        assert objective.items == sorted(set(objective.items))
        assert set(objective.items) == set(items)


# --------------------------------------------------------------------------- #
# Beam hypotheses
# --------------------------------------------------------------------------- #
class TestBeamHypothesisInvariants:
    @given(
        log_probs=st.lists(
            st.floats(min_value=-20.0, max_value=0.0, allow_nan=False), min_size=1, max_size=10
        ),
        bonus=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_completion_bonus_never_hurts(self, log_probs, bonus):
        total = np.asarray([float(np.sum(log_probs))] * 2)
        incomplete, complete = _hypothesis_scores(total, len(log_probs), [False, True], bonus)
        assert complete >= incomplete

    @given(
        log_probs=st.lists(
            st.floats(min_value=-20.0, max_value=0.0, allow_nan=False), min_size=1, max_size=10
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_score_is_length_normalised_log_probability(self, log_probs):
        total = float(np.sum(log_probs))
        (score,) = _hypothesis_scores(np.asarray([total]), len(log_probs), False, 0.0)
        assert score == pytest.approx(total / len(log_probs))


# --------------------------------------------------------------------------- #
# Serving: submission-order exactness across the two lanes
# --------------------------------------------------------------------------- #
SERVE_MAX_LENGTH = 4


@pytest.fixture(scope="module")
def serving_world(tiny_split):
    from repro.core.irn import IRN
    from repro.evaluation.protocol import sample_objectives

    backbone = IRN(
        embedding_dim=8, user_dim=4, num_heads=2, num_layers=1, epochs=1,
        batch_size=32, max_sequence_length=50, seed=0,
    ).fit(tiny_split)
    instances = sample_objectives(tiny_split, min_objective_interactions=2, max_instances=3)
    contexts = [(tuple(i.history), int(i.objective), i.user_index) for i in instances]
    return backbone, tiny_split, contexts


class TestServingOrderInvariants:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(["follow", "diverge", "restart"])),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_interleaved_submission_answers_like_sequential_next_step(self, serving_world, ops):
        """Hits (answered at admission), misses (queued and micro-batched),
        diverged paths and duplicate contexts, all submitted before any is
        awaited, answer exactly what the same list does through sequential
        ``next_step`` on a twin planner — including a step that follows a
        queued replan of its own context, which must wait for it."""
        from repro.core.beam import BeamSearchPlanner
        from repro.serve import NextStepRequest, ServingLoop

        backbone, split, contexts = serving_world

        def planner():
            return BeamSearchPlanner(backbone, max_length=SERVE_MAX_LENGTH).fit(split)

        # The request list (each op's path depends on the answers before it)
        # and its sequential answers, from the twin.
        twin = planner()
        tracked = [() for _ in contexts]
        requests, expected = [], []
        for index, mode in ops:
            history, objective, user = contexts[index]
            path = tracked[index]
            if mode == "restart" or len(path) >= SERVE_MAX_LENGTH:
                path = ()
            elif mode == "diverge":
                wrong = history[0] if not path or path[-1] != history[0] else history[1]
                path = path[:-1] + (wrong,)
            answer = twin.next_step(history, objective, list(path), user_index=user)
            tracked[index] = () if answer is None else path + (answer,)
            requests.append(
                NextStepRequest(
                    history=history, objective=objective, path_so_far=path, user_index=user
                )
            )
            expected.append(answer)

        with ServingLoop(planner()) as loop:
            futures = [loop.serve(request) for request in requests]
            answers = [future.result(timeout=30).answer for future in futures]
            stats = loop.stats()
        assert answers == expected
        assert stats["served"] == len(ops)
        assert loop._pending == {}
