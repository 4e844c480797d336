"""Pruned planning in shortlist space: same plans, ``(rows, K)`` blocks only.

The planner keeps a pruned plan's scores in a per-row ``(rows, K)`` block
from the projection to the top-k.  These tests pin that the block computes
what the full-vocabulary formulation did (scatter to ``-inf``-full rows,
mask, normalise, stable top-k), that the seen-item lookup is right on
ragged, padded rows, that a backbone without the gathered projection plans
the same paths, that ``None`` fallbacks no longer drag a drain to
``(rows, vocab)``, and that no ``(rows, vocab)`` array is ever allocated.
"""

from __future__ import annotations

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beam import BeamSearchPlanner
from repro.core.influence_path import log_softmax_rows, mask_session_items
from repro.core.irn import IRN
from repro.data.padding import pre_pad_block
from repro.retrieval import CooccurrenceNeighborGenerator, make_generator
from repro.shard.topk import stable_topk
from repro.utils.exceptions import ConfigurationError


def plan_args(contexts):
    return (
        [c[0] for c in contexts],
        [c[1] for c in contexts],
        [c[2] for c in contexts],
    )


def pad_rows(shortlists: "list[list[int]]") -> np.ndarray:
    """The planner's item table: ascending rows, padded by repeating the last item."""
    width = max(len(shortlist) for shortlist in shortlists)
    return np.asarray(
        [sorted(s) + [max(s)] * (width - len(s)) for s in shortlists], dtype=np.int64
    )


class _FixedScores:
    """Backbone stub answering every batch with one fixed score matrix."""

    def __init__(self, scores: np.ndarray) -> None:
        self.scores = scores

    def score_with_objective(self, sequence, objective, user_index=None):
        raise AssertionError("the batched scorer is the one that must be used")

    def score_with_objective_batch(self, sequences, objectives, user_indices=None):
        return self.scores


@st.composite
def expansions(draw):
    """Tie-heavy scores over a small vocabulary, ragged shortlists, seen items."""
    vocab = draw(st.integers(min_value=4, max_value=18))
    rows = draw(st.integers(min_value=1, max_value=5))
    items = st.integers(min_value=1, max_value=vocab - 1)
    cell = st.sampled_from([-np.inf, 0.0, 1.0, 2.0, 3.0])
    scores = np.asarray(
        draw(st.lists(st.lists(cell, min_size=vocab, max_size=vocab), min_size=rows, max_size=rows))
    )
    shortlists = draw(
        st.lists(
            st.lists(items, min_size=1, max_size=vocab - 1, unique=True),
            min_size=rows,
            max_size=rows,
        )
    )
    # the generator contract puts the objective in the shortlist; the history
    # may hold it too (it is never masked), and may cover the whole shortlist
    objectives = [draw(st.sampled_from(shortlist)) for shortlist in shortlists]
    sequences = [
        draw(st.lists(items, max_size=6)) + (shortlist if draw(st.booleans()) else [])
        for shortlist in shortlists
    ]
    branch = draw(st.integers(min_value=1, max_value=6))
    return scores, shortlists, objectives, sequences, branch


class TestExpandAllInShortlistSpace:
    @settings(max_examples=200, deadline=None)
    @given(case=expansions())
    def test_matches_the_full_vocabulary_formulation(self, case):
        scores, shortlists, objectives, sequences, branch = case
        rows, vocab = scores.shape
        planner = BeamSearchPlanner(_FixedScores(scores), branch_factor=branch)
        row_items = pad_rows(shortlists)
        items, values = planner._expand(
            planner._batched_scores(sequences, objectives, [None] * rows, row_items),
            pre_pad_block(sequences),
            objectives,
            row_items=row_items,
        )

        full = np.full((rows, vocab), -np.inf)
        for row, shortlist in enumerate(shortlists):
            full[row, shortlist] = scores[row, shortlist]
            for item in sequences[row]:
                if item != objectives[row]:
                    full[row, item] = -np.inf
        expected_top, expected = stable_topk(log_softmax_rows(full), min(branch, vocab))
        for row in range(rows):
            children, keep = np.isfinite(values[row]), np.isfinite(expected[row])
            assert items[row][children].tolist() == expected_top[row][keep].tolist()
            np.testing.assert_allclose(
                values[row][children], expected[row][keep], rtol=0, atol=1e-12
            )


@st.composite
def lookups(draw):
    """Ragged shortlists over ids 1..20, histories over ids 1..40."""
    rows = draw(st.integers(min_value=1, max_value=6))
    shortlists = draw(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8, unique=True),
            min_size=rows,
            max_size=rows,
        )
    )
    sequences = draw(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=40), max_size=10),
            min_size=rows,
            max_size=rows,
        )
    )
    objectives = draw(
        st.lists(st.integers(min_value=1, max_value=40), min_size=rows, max_size=rows)
    )
    return shortlists, sequences, objectives


def reference_masked_cells(shortlists, sequences, objectives, width) -> np.ndarray:
    masked = np.zeros((len(shortlists), width), dtype=bool)
    for row, shortlist in enumerate(shortlists):
        for column, item in enumerate(sorted(shortlist)):  # real cells only, never padding
            masked[row, column] = item in sequences[row] and item != objectives[row]
    return masked


class TestShortlistSpaceLookup:
    @settings(max_examples=400, deadline=None)
    @given(case=lookups())
    def test_masks_exactly_the_seen_cells(self, case):
        shortlists, sequences, objectives = case
        row_items = pad_rows(shortlists)
        scores = np.arange(row_items.size, dtype=np.float64).reshape(row_items.shape)
        untouched = scores.copy()
        mask_session_items(scores, pre_pad_block(sequences), objectives, row_items=row_items)
        expected = reference_masked_cells(shortlists, sequences, objectives, row_items.shape[1])
        assert np.array_equal(np.isneginf(scores), expected)
        assert np.array_equal(scores[~expected], untouched[~expected])

    def test_seen_item_above_every_candidate_stays_in_its_row(self):
        """A flat ``item + row * stride`` key is only unique when the stride
        exceeds every id searched for: with ``stride = max candidate + 1 = 4``
        row 0's seen item 5 is row 1's key for item 1."""
        row_items = np.array([[1, 2], [1, 3]])
        scores = np.zeros((2, 2))
        mask_session_items(scores, np.array([[5], [3]]), [2, 1], row_items=row_items)
        assert np.array_equal(np.isneginf(scores), [[False, False], [False, True]])

    def test_non_contiguous_scores_are_masked_in_place(self):
        scores = np.zeros((2, 6))[:, ::2]
        seen = pre_pad_block([[4], []])
        mask_session_items(scores, seen, [9, 9], row_items=np.array([[2, 4, 6], [1, 2, 3]]))
        assert np.array_equal(np.isneginf(scores), [[False, True, False], [False] * 3])


class _FullScoringOnly:
    """An IRN with its gathered projection hidden (no ``supports_candidate_scoring``).

    The planner scores such a backbone over the full vocabulary and gathers
    each row's shortlist columns — the reference the shortlist-space
    projection must plan identically to.
    """

    def __init__(self, irn: IRN) -> None:
        self._irn = irn
        self.corpus = irn.corpus
        self.name = irn.name

    def score_with_objective(self, sequence, objective, user_index=None):
        return self._irn.score_with_objective(sequence, objective, user_index)

    def score_with_objective_batch(self, sequences, objectives, user_indices=None):
        return self._irn.score_with_objective_batch(sequences, objectives, user_indices)


class TestGatheredProjectionMatchesFullScoring:
    @pytest.mark.parametrize("spec", ["cooccurrence", "ann"])
    def test_hidden_capability_plans_the_same_paths(
        self, retrieval_irn, tiny_split, contexts, spec
    ):
        generator = make_generator(spec, num_candidates=16).fit(tiny_split.corpus)
        knobs = dict(candidate_generator=generator, plan_cache_size=0)
        gathered = BeamSearchPlanner(retrieval_irn, **knobs).fit(tiny_split)
        full = BeamSearchPlanner(_FullScoringOnly(retrieval_irn), **knobs).fit(tiny_split)
        plans = gathered.plan_paths_batch(*plan_args(contexts), max_length=6)
        assert any(plans)
        assert full.plan_paths_batch(*plan_args(contexts), max_length=6) == plans


class _ColdForOddObjectives(CooccurrenceNeighborGenerator):
    """Shortlists contexts with an even objective, answers ``None`` for the rest."""

    name = "cold-for-odd"

    def _candidates(self, history, objective, user_index):
        if objective % 2:
            return None
        return super()._candidates(history, objective, user_index)


class _RecordingIRN:
    """Forwards to an IRN, keeping the ``candidate_items`` shape of every batch."""

    supports_candidate_scoring = True

    def __init__(self, irn: IRN) -> None:
        self._irn = irn
        self.corpus = irn.corpus
        self.name = "recording-IRN"
        self.calls: "list[tuple[int, tuple | None]]" = []

    def score_with_objective(self, sequence, objective, user_index=None):
        return self._irn.score_with_objective(sequence, objective, user_index)

    def score_with_objective_batch(
        self, sequences, objectives, user_indices=None, candidate_items=None
    ):
        self.calls.append(
            (len(sequences), None if candidate_items is None else candidate_items.shape)
        )
        return self._irn.score_with_objective_batch(
            sequences, objectives, user_indices, candidate_items=candidate_items
        )


class TestMixedDrain:
    def test_cold_and_shortlisted_contexts_plan_as_they_do_alone(
        self, retrieval_irn, tiny_split, contexts
    ):
        # both groups present, whatever objectives the fixture sampled
        contexts = contexts + [(h, o - 1 if o > 1 else o + 1, u) for h, o, u in contexts[:3]]
        cold = [c for c in contexts if c[1] % 2]
        assert cold and len(cold) < len(contexts)

        def planner(backbone):
            generator = _ColdForOddObjectives(num_candidates=16)
            return BeamSearchPlanner(
                backbone, candidate_generator=generator, plan_cache_size=0
            ).fit(tiny_split)

        backbone = _RecordingIRN(retrieval_irn)
        together = planner(backbone)
        plans = together.plan_paths_batch(*plan_args(contexts), max_length=5)
        alone = [
            planner(retrieval_irn).plan_paths_batch(*plan_args([c]), max_length=5)[0]
            for c in contexts
        ]
        assert plans == alone

        # the shortlisted group never left shortlist space, and the cold one
        # scored the full vocabulary without taking the others along
        beam_width = together.beam_width
        shortlisted = len(contexts) - len(cold)
        pruned_calls = [(rows, shape) for rows, shape in backbone.calls if shape is not None]
        exact_calls = [rows for rows, shape in backbone.calls if shape is None]
        assert pruned_calls and exact_calls
        for rows, shape in pruned_calls:
            assert len(shape) == 2 and shape[0] == rows <= beam_width * shortlisted
            assert shape[1] <= 17  # 16 candidates + the objective
        assert max(exact_calls) <= beam_width * len(cold)

        info = together.cache_info()["retrieval"]
        assert info["requests"] == len(contexts)
        assert info["fallbacks"] == len(cold)
        assert info["candidate_items"] > 0


class TestPerRowCandidateScoring:
    def test_logits_equal_the_full_scores_at_each_rows_items(self, retrieval_irn, contexts):
        # an empty history beside the others: two query columns in one batch
        histories, objectives, users = plan_args(contexts + [([], contexts[0][1], None)])
        full = retrieval_irn.score_with_objective_batch(histories, objectives, users)
        rng = np.random.default_rng(0)
        table = rng.integers(1, retrieval_irn.vocab_size, size=(len(histories), 9))
        table[:, -1] = table[:, -2]  # a repeat, as padding would be
        pruned = retrieval_irn.score_with_objective_batch(
            histories, objectives, users, candidate_items=table
        )
        assert pruned.shape == table.shape and pruned.dtype == np.float64
        np.testing.assert_allclose(
            pruned, np.take_along_axis(full, table, axis=1), rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize(
        "table",
        [
            np.array([[1, 0], [2, 3]]),  # the padding item
            np.array([[1, 2], [2, 10**6]]),  # past the vocabulary
            np.array([[1, 2]]),  # one row for a batch of two
            np.array([[1, 2], [2, 3], [3, 4]]),  # three rows for a batch of two
            np.array([[1.0, 2.0], [2.0, 3.0]]),  # not integer ids
            np.empty((2, 0), dtype=np.int64),
        ],
        ids=["pad", "out-of-range", "short-batch", "long-batch", "float", "empty"],
    )
    def test_invalid_tables_rejected(self, retrieval_irn, contexts, table):
        histories, objectives, users = plan_args(contexts[:2])
        with pytest.raises(ConfigurationError):
            retrieval_irn.score_with_objective_batch(
                histories, objectives, users, candidate_items=table
            )


class TestNoVocabularyWideArray:
    def test_pruned_plan_peak_memory_is_below_one_rows_by_vocab_array(self, tmp_path):
        """A count, not a clock: the e2e catalog shape (20 000 items, 16
        contexts, 128 candidates) planned under ``tracemalloc``."""
        from repro.data.splitting import split_corpus
        from repro.data.streaming import StreamingSyntheticConfig, build_streaming_store
        from repro.evaluation.protocol import sample_objectives

        store = build_streaming_store(
            StreamingSyntheticConfig(
                num_items=20_000, num_users=128, min_events=12, max_events=24, seed=0
            ),
            os.path.join(tmp_path, "store"),
            name="shortlist-space",
        )
        split = split_corpus(
            store.as_corpus(), l_min=6, l_max=12, validation_fraction=0.0, seed=0
        )
        irn = IRN(
            embedding_dim=16, user_dim=4, num_heads=2, num_layers=1, epochs=1,
            batch_size=8, max_sequence_length=16, seed=0,
        ).fit(split)
        generator = make_generator("cooccurrence", num_candidates=128).fit(split.corpus)
        planner = BeamSearchPlanner(
            irn, candidate_generator=generator, beam_width=4, branch_factor=4, max_length=12
        ).fit(split)
        instances = sample_objectives(
            split, min_objective_interactions=1, seed=0, max_instances=16
        )
        args = (
            [[int(item) for item in inst.history] for inst in instances],
            [inst.objective for inst in instances],
            [inst.user_index for inst in instances],
        )
        tracemalloc.start()
        try:
            plans = planner.plan_paths_batch(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plans) == 16 and any(plans)
        assert planner.cache_info()["retrieval"]["fallbacks"] == 0
        rows = planner.beam_width * len(instances)
        assert peak < rows * split.corpus.vocab.size * 8
