"""Parity and behaviour tests for the incremental-decoding cache subsystem.

Acceptance contract of the cache PR: cached planning must produce paths
identical to uncached planning — the object beam of
``tests/core/reference_beam.py`` with its sessions off, re-scoring every
hypothesis' full window (the existing stable tie-breaking makes this
exact) —, per-depth cached logits must match the uncached batched scorer
within the documented BLAS tolerance (on a float64 program: the
``float64_program`` fixture), the plan/serving LRUs must be bounded
and invalidated on retrain, and ``next_step`` serving over interleaved
contexts must reproduce dedicated-planner (isolated) semantics instead of
thrashing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.beam import BeamSearchPlanner
from repro.core.irn import IRN
from repro.core.pim import MaskType
from repro.evaluation.protocol import (
    IRSEvaluationProtocol,
    rollout_next_step,
    sample_objectives,
)
from repro.utils.exceptions import ConfigurationError
from tests.core.reference_beam import ReferenceBeamPlanner

RTOL, ATOL = 1e-7, 1e-8


def _make_irn(tiny_split, num_layers: int, max_sequence_length: int = 50, **knobs) -> IRN:
    return IRN(
        embedding_dim=16,
        user_dim=4,
        num_heads=2,
        num_layers=num_layers,
        epochs=1,
        batch_size=32,
        max_sequence_length=max_sequence_length,
        seed=0,
        **knobs,
    ).fit(tiny_split)


def _rescoring(backbone, **knobs) -> ReferenceBeamPlanner:
    """The uncached planner: the object beam, sessions off."""
    return ReferenceBeamPlanner(backbone, sessions=False, **knobs)


@pytest.fixture(scope="module")
def irn_one_layer(tiny_split):
    """Single layer: incremental prefix K/V reuse is exact under the PIM."""
    return _make_irn(tiny_split, num_layers=1)


@pytest.fixture(scope="module")
def irn_two_layer(tiny_split):
    """Two layers: objective sessions must fall back (moving objective)."""
    return _make_irn(tiny_split, num_layers=2)


@pytest.fixture(scope="module")
def instances(tiny_split):
    return sample_objectives(tiny_split, min_objective_interactions=2, max_instances=8)


def _contexts(instances):
    return [(list(inst.history), inst.objective, inst.user_index) for inst in instances]


@pytest.mark.usefixtures("float64_program")
class TestSessionScoringParity:
    """Cached-vs-uncached logits at every decoding depth."""

    @pytest.mark.parametrize("layers", [1, 2])
    def test_depthwise_logit_parity(self, tiny_split, irn_one_layer, irn_two_layer, layers, rng):
        irn = irn_one_layer if layers == 1 else irn_two_layer
        sequences = [[], [3], [5, 7, 9], [2, 4, 6, 8, 10, 12]]
        objectives = [5, 7, 11, 14]
        users = [0, None, 2, 10_000]
        scores, session = irn.begin_decoding_session(sequences, objectives, users)
        reference = irn.score_with_objective_batch(sequences, objectives, users)
        np.testing.assert_allclose(scores, reference, rtol=RTOL, atol=ATOL)
        assert session.incremental == (layers == 1)
        grown = [list(sequence) for sequence in sequences]
        for _ in range(5):
            new = [int(rng.integers(1, irn.vocab_size)) for _ in grown]
            scores = irn.advance_decoding_session(session, new)
            for row, item in zip(grown, new):
                row.append(item)
            reference = irn.score_with_objective_batch(grown, objectives, users)
            np.testing.assert_allclose(scores, reference, rtol=RTOL, atol=ATOL)

    def test_parity_under_row_gather_and_duplication(self, irn_one_layer, rng):
        irn = irn_one_layer
        sequences = [[1, 2, 3], [4, 5], [6]]
        objectives = [7, 8, 9]
        users = [0, 1, 2]
        _, session = irn.begin_decoding_session(sequences, objectives, users)
        parent_rows = [2, 0, 0, 1]  # prune row 1's slot, duplicate row 0
        grown = [list(sequences[row]) for row in parent_rows]
        grown_objectives = [objectives[row] for row in parent_rows]
        grown_users = [users[row] for row in parent_rows]
        new = [int(rng.integers(1, irn.vocab_size)) for _ in grown]
        scores = irn.advance_decoding_session(session, new, parent_rows)
        for row, item in zip(grown, new):
            row.append(item)
        reference = irn.score_with_objective_batch(grown, grown_objectives, grown_users)
        np.testing.assert_allclose(scores, reference, rtol=RTOL, atol=ATOL)

    def test_causal_sessions_exact_at_two_layers(self, tiny_split, rng):
        """Under ``MaskType.CAUSAL`` no prefix position sees the objective,
        so objective sessions stay incremental at any depth."""
        irn = _make_irn(tiny_split, num_layers=2, mask_type=MaskType.CAUSAL)
        histories = [[], [3], [5, 7, 9, 11]]
        objectives = [4, 8, 12]
        users = [0, 1, None]
        scores, session = irn.begin_decoding_session(histories, objectives, users)
        assert session.incremental
        np.testing.assert_allclose(
            scores,
            irn.score_with_objective_batch(histories, objectives, users),
            rtol=RTOL,
            atol=ATOL,
        )
        grown = [list(history) for history in histories]
        before = irn.decode_stats.snapshot()
        for _ in range(3):
            new = [int(rng.integers(1, irn.vocab_size)) for _ in grown]
            scores = irn.advance_decoding_session(session, new)
            for row, item in zip(grown, new):
                row.append(item)
            np.testing.assert_allclose(
                scores,
                irn.score_with_objective_batch(grown, objectives, users),
                rtol=RTOL,
                atol=ATOL,
            )
        after = irn.decode_stats.snapshot()
        assert after["tokens_incremental"] > before["tokens_incremental"]
        assert after["tokens_fallback"] == before["tokens_fallback"]

    def test_two_layer_objective_session_uses_fallback(self, irn_two_layer):
        irn = irn_two_layer
        before = irn.decode_stats.snapshot()
        _, session = irn.begin_decoding_session([[1, 2]], [5], [0])
        assert not session.incremental
        irn.advance_decoding_session(session, [9])
        after = irn.decode_stats.snapshot()
        assert after["tokens_fallback"] > before["tokens_fallback"]
        assert after["tokens_incremental"] == before["tokens_incremental"]

    def test_session_degrades_when_window_slides(self, tiny_split):
        """Outgrowing the model window flips the session to exact fallback."""
        irn = _make_irn(tiny_split, num_layers=1, max_sequence_length=6)
        history = [1, 2, 3, 4]  # clipped prefix is already near the window
        _, session = irn.begin_decoding_session([history], [5], [0])
        assert session.incremental
        grown = list(history)
        for item in (7, 9, 11, 13):
            scores = irn.advance_decoding_session(session, [item])
            grown.append(item)
            reference = irn.score_with_objective_batch([grown], [5], [0])
            np.testing.assert_allclose(scores, reference, rtol=RTOL, atol=ATOL)
        assert not session.incremental

    def test_empty_batch_rejected(self, irn_one_layer):
        with pytest.raises(ConfigurationError):
            irn_one_layer.begin_decoding_session([], [], [])


def _tokens_encoded(irn: IRN, fn):
    """``(fn(), transformer positions it encoded)`` — token-work, an exact count."""
    before = irn.decode_stats.snapshot()["tokens_encoded"]
    result = fn()
    return result, irn.decode_stats.snapshot()["tokens_encoded"] - before


class TestCachedPlanningParity:
    @pytest.mark.parametrize("shape", [(4, 4), (1, 3), (6, 2), (9, 9)], ids="{0[0]}x{0[1]}".format)
    @pytest.mark.parametrize("layers", [1, 2])
    def test_session_plans_identical_to_uncached(
        self, tiny_split, irn_one_layer, irn_two_layer, instances, layers, shape
    ):
        """Sessions plan what full re-encoding plans at every beam shape, and
        at the default 4 x 4 for at most half the token-work: one layer
        reuses prefix K/V across depths, the default model (two layers,
        personalized mask) shares each root's history within a depth (a
        width-1 beam has no siblings to share it with)."""
        irn = irn_one_layer if layers == 1 else irn_two_layer
        contexts = _contexts(instances)
        knobs = dict(beam_width=shape[0], branch_factor=shape[1], plan_cache_size=0)
        cached = BeamSearchPlanner(irn, **knobs).fit(tiny_split)
        uncached = _rescoring(irn, **knobs).fit(tiny_split)
        args = ([c[0] for c in contexts], [c[1] for c in contexts], [c[2] for c in contexts])
        plans_cached, cached_tokens = _tokens_encoded(
            irn, lambda: cached.plan_paths_batch(*args, max_length=8)
        )
        plans_uncached, uncached_tokens = _tokens_encoded(
            irn, lambda: uncached.plan_paths_batch(*args, max_length=8)
        )
        assert plans_cached == plans_uncached
        if shape == (4, 4):
            # the two-layer row reads 2.3x: a beam that stopped sharing reads 1.0
            assert 2 * cached_tokens <= uncached_tokens

    def test_one_layer_planning_is_mostly_incremental(self, tiny_split, irn_one_layer, instances):
        contexts = _contexts(instances)
        args = (
            [c[0] for c in contexts],
            [c[1] for c in contexts],
            [c[2] for c in contexts],
        )
        planner_on = BeamSearchPlanner(
            irn_one_layer, beam_width=4, branch_factor=4, plan_cache_size=0
        ).fit(tiny_split)
        planner_off = _rescoring(
            irn_one_layer, beam_width=4, branch_factor=4, plan_cache_size=0
        ).fit(tiny_split)
        before = irn_one_layer.decode_stats.snapshot()
        planner_on.plan_paths_batch(*args, max_length=6)
        middle = irn_one_layer.decode_stats.snapshot()
        planner_off.plan_paths_batch(*args, max_length=6)
        after = irn_one_layer.decode_stats.snapshot()
        on_delta = {k: middle[k] - before[k] for k in middle}
        off_delta = {k: after[k] - middle[k] for k in after}
        assert on_delta["tokens_incremental"] > 0
        assert on_delta["tokens_fallback"] == 0
        # every post-initial depth encodes 2 tokens/hypothesis instead of the
        # full right-aligned window, so total token-work shrinks sharply
        assert on_delta["tokens_encoded"] * 2 < off_delta["tokens_encoded"]

    def test_plan_cache_short_circuits_replanning(self, tiny_split, irn_one_layer, instances):
        contexts = _contexts(instances)
        planner = BeamSearchPlanner(irn_one_layer, beam_width=4, branch_factor=4).fit(tiny_split)
        args = (
            [c[0] for c in contexts],
            [c[1] for c in contexts],
            [c[2] for c in contexts],
        )
        first = planner.plan_paths_batch(*args, max_length=6)
        before = irn_one_layer.decode_stats.snapshot()
        second = planner.plan_paths_batch(*args, max_length=6)
        after = irn_one_layer.decode_stats.snapshot()
        assert first == second
        assert after["tokens_encoded"] == before["tokens_encoded"]  # zero model work
        info = planner.plan_cache.cache_info()
        assert info["hits"] == len(contexts)

    def test_max_length_participates_in_the_key(self, tiny_split, irn_one_layer, instances):
        context = _contexts(instances)[0]
        planner = BeamSearchPlanner(irn_one_layer, beam_width=2, branch_factor=2).fit(tiny_split)
        planner.plan_path(context[0], context[1], user_index=context[2], max_length=4)
        before = irn_one_layer.decode_stats.snapshot()
        planner.plan_path(context[0], context[1], user_index=context[2], max_length=6)
        after = irn_one_layer.decode_stats.snapshot()
        assert after["tokens_encoded"] > before["tokens_encoded"]  # different key -> replans

    def test_plan_cache_eviction_bound(self, tiny_split, irn_one_layer, instances):
        contexts = _contexts(instances)[:4]
        planner = BeamSearchPlanner(
            irn_one_layer, beam_width=2, branch_factor=2, plan_cache_size=2
        ).fit(tiny_split)
        for history, objective, user in contexts:
            planner.plan_path(history, objective, user_index=user, max_length=4)
        info = planner.plan_cache.cache_info()
        assert len(planner.plan_cache) <= 2
        assert info["evictions"] >= len(contexts) - 2


class TestNextStepServing:
    def test_serves_planned_path(self, tiny_split, irn_one_layer, instances):
        history, objective, user = _contexts(instances)[0]
        planner = BeamSearchPlanner(irn_one_layer, beam_width=4, branch_factor=4).fit(tiny_split)
        plan = planner.plan_path(history, objective, user_index=user)
        served = []
        while True:
            item = planner.next_step(history, objective, served, user_index=user)
            if item is None or len(served) >= len(plan):
                break
            served.append(item)
        assert served == plan

    @pytest.mark.parametrize("layers", [1, 2])
    def test_interleaved_serving_matches_isolated(
        self, tiny_split, irn_one_layer, irn_two_layer, instances, layers
    ):
        """The acceptance scenario: lockstep multi-context serving must equal
        dedicated-planner-per-context semantics (the old single replan slot
        thrashed here), while replanning each context only once."""
        irn = irn_one_layer if layers == 1 else irn_two_layer
        contexts = _contexts(instances)
        isolated = []
        for context in contexts:
            planner = BeamSearchPlanner(
                irn, beam_width=4, branch_factor=4, max_length=6
            ).fit(tiny_split)
            isolated.append(rollout_next_step(planner, [context], 6)[0])
        shared = BeamSearchPlanner(
            irn, beam_width=4, branch_factor=4, max_length=6
        ).fit(tiny_split)
        interleaved, shared_tokens = _tokens_encoded(
            irn, lambda: rollout_next_step(shared, contexts, 6)
        )
        assert interleaved == isolated
        info = shared.cache_info()
        assert info["serving"]["replans"] == len(contexts)  # one plan per context
        assert info["serving"]["served_from_plan"] > 0
        # The pre-cache planner — one replan slot, no plan memo, no sessions —
        # replans at nearly every context switch: at least 2x the token-work.
        single_slot = _rescoring(
            irn, beam_width=4, branch_factor=4, max_length=6,
            plan_cache_size=0, step_cache_size=1,
        ).fit(tiny_split)
        _, single_slot_tokens = _tokens_encoded(
            irn, lambda: rollout_next_step(single_slot, contexts, 6)
        )
        assert 2 * shared_tokens <= single_slot_tokens

    def test_divergence_triggers_replan_from_context(self, tiny_split, irn_one_layer, instances):
        history, objective, user = _contexts(instances)[0]
        planner = BeamSearchPlanner(irn_one_layer, beam_width=4, branch_factor=4).fit(tiny_split)
        plan = planner.plan_path(history, objective, user_index=user)
        if not plan:
            pytest.skip("planner produced an empty plan for this instance")
        # The user went off-plan: the served item must extend the diverged
        # context, exactly as an uncached replan from that context would.
        diverged = [plan[0] + 1 if plan[0] + 1 < irn_one_layer.vocab_size else 1]
        served = planner.next_step(history, objective, diverged, user_index=user)
        uncached = _rescoring(
            irn_one_layer, beam_width=4, branch_factor=4, plan_cache_size=0
        ).fit(tiny_split)
        expected = uncached.plan_path(
            list(history) + diverged, objective, user_index=user,
            max_length=planner.max_length - len(diverged),
        )
        assert served == (expected[0] if expected else None)

    def test_constructor_max_length_bounds_the_horizon(self, tiny_split, irn_one_layer, instances):
        """Satellite: the hardcoded 20 is now the constructor-level default."""
        history, objective, user = _contexts(instances)[0]
        short = BeamSearchPlanner(
            irn_one_layer, beam_width=2, branch_factor=2, max_length=3
        ).fit(tiny_split)
        assert len(short.plan_path(history, objective, user_index=user)) <= 3
        path = rollout_next_step(short, [(history, objective, user)], 10)[0]
        assert len(path) <= 3
        with pytest.raises(ConfigurationError):
            BeamSearchPlanner(irn_one_layer, max_length=0)

    def test_refit_invalidates_caches(self, tiny_split, instances):
        irn = _make_irn(tiny_split, num_layers=1)
        history, objective, user = _contexts(instances)[0]
        planner = BeamSearchPlanner(irn, beam_width=2, branch_factor=2).fit(tiny_split)
        planner.plan_path(history, objective, user_index=user, max_length=4)
        planner.next_step(history, objective, [], user_index=user)
        assert len(planner.plan_cache) > 0
        irn.fit(tiny_split)  # retrain under the planner
        before = irn.decode_stats.snapshot()
        planner.plan_path(history, objective, user_index=user, max_length=4)
        after = irn.decode_stats.snapshot()
        assert after["tokens_encoded"] > before["tokens_encoded"]  # replanned, not served
        assert planner.plan_cache.invalidations >= 1


class TestProtocolStepwise:
    def test_stepwise_records_match_batched_records(
        self, tiny_split, irn_one_layer, markov_evaluator
    ):
        protocol = IRSEvaluationProtocol(
            tiny_split,
            markov_evaluator,
            max_length=6,
            min_objective_interactions=2,
            max_instances=6,
        )
        planner = BeamSearchPlanner(
            irn_one_layer, beam_width=4, branch_factor=4, max_length=6
        ).fit(tiny_split)
        batched = protocol.generate_records(planner)
        stepwise = protocol.generate_records_stepwise(planner)
        assert [record.path for record in stepwise] == [record.path for record in batched]
