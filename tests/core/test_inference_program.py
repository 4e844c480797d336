"""The compiled inference program behind every IRN scorer.

* **Exact** — on a float64 program (the ``float64_program`` fixture), every
  scorer, in every decoding regime, answers what the *graph* forward
  (``_IRNModule.forward`` under grad, the training path) answers on the same
  right-aligned batch, to ``1e-10``.
* **Never stale** — the program is dropped by every weight change,
  including the ones that leave ``fit_generation`` alone
  (``Module.load_state_dict``, which restores weights under a model's
  back), and is shared safely by concurrent scorers.
* **A refused advance changes nothing** — ``advance_decoding_session``
  validates both arguments before it touches the session.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.irn import IRN
from repro.core.pim import MaskType
from repro.data.padding import PAD_INDEX
from repro.models._sequence_utils import clip_history
from repro.utils.exceptions import ConfigurationError

ATOL = 1e-10  # executor vs graph forward: summation order only
WINDOW = 10
MASKS = (MaskType.CAUSAL, MaskType.OBJECTIVE, MaskType.PERSONALIZED)


def fit(tiny_split, seed: int = 0, **overrides) -> IRN:
    kwargs = dict(
        embedding_dim=8,
        user_dim=4,
        num_heads=2,
        num_layers=2,
        history_weight=0.3,
        epochs=1,
        batch_size=64,
        max_sequence_length=WINDOW,
        seed=seed,
    )
    kwargs.update(overrides)
    return IRN(**kwargs).fit(tiny_split)


@pytest.fixture(scope="module")
def models(tiny_split):
    cache: dict = {}

    def get(num_layers: int, mask_type: MaskType) -> IRN:
        key = (num_layers, mask_type)
        if key not in cache:
            cache[key] = fit(tiny_split, num_layers=num_layers, mask_type=mask_type)
        return cache[key]

    return get


def graph_scores(irn: IRN, sequences, objectives, users) -> np.ndarray:
    """The oracle: the graph forward over the scorers' own right-aligned batch."""
    if objectives is None:
        rows = [
            [int(i) for i in clip_history(seq, irn.max_sequence_length)] or [PAD_INDEX]
            for seq in sequences
        ]
        knobs = dict(mask_type=MaskType.CAUSAL)
    else:
        rows = [
            [int(i) for i in clip_history(seq, irn.max_sequence_length - 1)] + [int(objective)]
            for seq, objective in zip(sequences, objectives)
        ]
        knobs = dict(
            mask_type=irn.mask_type,
            objective_weight=irn.objective_weight * irn.objective_logit_scale,
            history_weight=irn.history_weight,
        )
    items, positions, lengths = irn._right_align(rows)
    logits = irn.module(items, irn._batch_users(users, len(rows)), positions=positions, **knobs)
    assert logits.requires_grad  # grad enabled: the training path, not a fused branch
    if objectives is None:
        read = np.full(len(rows), items.shape[1] - 1)
    else:
        read = np.where(lengths >= 2, items.shape[1] - 2, items.shape[1] - 1)
    scores = logits.data[np.arange(len(rows)), read].copy()
    scores[:, PAD_INDEX] = -np.inf
    return scores


ROOTS = ([], [4], [3, 9, 4, 7, 11], [2, 6, 8, 10, 12, 14, 1])
OBJECTIVES = (5, 7, 2, 9)
USERS = (0, None, 3, 10_000)
#: (parent rows, new items): prune, duplicate, reorder — and outgrow the window
ADVANCES = (
    (None, [1, 2, 3, 4]),
    ([3, 0, 0, 2, 1], [5, 6, 7, 8, 9]),  # the seven-item root now fills the 10-token window
    ([0, 3, 3], [10, 11, 12]),  # ... and overflows it: every row slides
    ([1, 2, 2], [13, 14, 15]),  # pruned: the rest fits again
    (None, [16, 17, 18]),
)


@pytest.mark.usefixtures("float64_program")
class TestEveryScorerMatchesTheGraphForward:
    @pytest.mark.parametrize("mask_type", MASKS, ids=lambda mask: mask.name.lower())
    @pytest.mark.parametrize("num_layers", (1, 2, 3))
    def test_objective_scorers_and_sessions(self, models, num_layers, mask_type):
        irn = models(num_layers, mask_type)
        args = (list(ROOTS), list(OBJECTIVES), list(USERS))
        np.testing.assert_allclose(
            irn.score_with_objective_batch(*args), graph_scores(irn, *args), rtol=0, atol=ATOL
        )
        scores, session = irn.begin_decoding_session(*args)
        np.testing.assert_allclose(scores, graph_scores(irn, *args), rtol=0, atol=ATOL)
        regimes = set()
        for parents, new_items in ADVANCES:
            before = irn.decode_stats.snapshot()
            scores = irn.advance_decoding_session(session, new_items, parents)
            after = irn.decode_stats.snapshot()
            expected = graph_scores(irn, session.rows, session.objectives, list(session.users))
            np.testing.assert_allclose(scores, expected, rtol=0, atol=ATOL)
            if after["incremental_forwards"] > before["incremental_forwards"]:
                regimes.add("incremental")
            elif after["tokens_fallback"] - before["tokens_fallback"] == session.batch_size * min(
                int(session.lengths.max()) + 1, WINDOW
            ):
                regimes.add("window")
            else:
                regimes.add("shared")
        reuse_is_exact = num_layers == 1 or mask_type == MaskType.CAUSAL
        assert regimes == {"incremental" if reuse_is_exact else "shared", "window"}

    def test_objective_free_scorer_and_sessions(self, models):
        """The objective-free scorer (Table IV's); sessions are objective
        sessions only, and under ``MaskType.CAUSAL`` they stay incremental
        at two layers until the window slides."""
        irn = models(2, MaskType.PERSONALIZED)
        histories, users = list(ROOTS), list(USERS)
        expected = graph_scores(irn, histories, None, users)
        np.testing.assert_allclose(
            irn.score_next_batch(histories, users), expected, rtol=0, atol=ATOL
        )
        causal = models(2, MaskType.CAUSAL)
        args = (histories, list(OBJECTIVES), users)
        scores, session = causal.begin_decoding_session(*args)
        assert session.incremental
        np.testing.assert_allclose(scores, graph_scores(causal, *args), rtol=0, atol=ATOL)
        for parents, new_items in ADVANCES[:3]:
            incremental = session.incremental
            scores = causal.advance_decoding_session(session, new_items, parents)
            expected = graph_scores(
                causal, session.rows, list(session.objectives), list(session.users)
            )
            np.testing.assert_allclose(scores, expected, rtol=0, atol=ATOL)
        assert incremental and not session.incremental  # until the window slid

    def test_candidate_restricted_scores(self, models):
        irn = models(2, MaskType.PERSONALIZED)
        args = (list(ROOTS), list(OBJECTIVES), list(USERS))
        expected = graph_scores(irn, *args)
        shortlist = np.asarray([1, 4, 9, 16, 25])
        per_row = np.stack([shortlist, shortlist[::-1], shortlist + 1, shortlist + 2])
        scores = irn.score_with_objective_batch(*args, candidate_items=per_row)
        np.testing.assert_allclose(
            scores, np.take_along_axis(expected, per_row, axis=1), rtol=0, atol=ATOL
        )
        scores, _ = irn.begin_decoding_session(*args, candidate_items=per_row)
        np.testing.assert_allclose(
            scores, np.take_along_axis(expected, per_row, axis=1), rtol=0, atol=ATOL
        )


CONTEXTS = ([[3, 9, 4], [2, 6, 8, 10, 12], []], [5, 7, 2], [0, 3, None])


def every_scorer(irn: IRN) -> "list[np.ndarray]":
    """One answer from each way into the program."""
    first, session = irn.begin_decoding_session(*CONTEXTS)
    return [
        irn.score_with_objective_batch(*CONTEXTS),
        irn.score_next_batch(CONTEXTS[0], CONTEXTS[2]),
        first,
        irn.advance_decoding_session(session, [1, 2, 3]),
        irn.impressionability_factors(),
    ]


def assert_answers(actual, expected, differ_from=None) -> None:
    for got, want in zip(actual, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    if differ_from is not None:
        for got, other in zip(actual, differ_from):
            finite = np.isfinite(got)
            assert not np.allclose(got[finite], other[finite], rtol=0, atol=1e-6)


class TestWeightChangesDropTheProgram:
    @pytest.fixture(scope="class")
    def other(self, tiny_split):
        """A differently seeded model: what the reloaded weights must answer."""
        return fit(tiny_split, seed=1)

    def test_load_state_dict_without_a_generation_bump(self, tiny_split, other):
        irn = fit(tiny_split, seed=0)
        first = every_scorer(irn)
        program, generation = irn._program(), irn.fit_generation
        irn.module.load_state_dict(other.module.state_dict())
        assert not program.current(irn.module)
        assert_answers(every_scorer(irn), every_scorer(other), differ_from=first)
        assert irn.fit_generation == generation  # no bump: the weights alone tell
        assert irn._program() is irn._program()  # and the new program is kept

    def test_warm_start(self, tiny_split, other, tmp_path):
        irn = fit(tiny_split, seed=0)
        first = every_scorer(irn)
        path = str(tmp_path / "weights.npz")
        other.save_weights(path)
        irn.warm_start(tiny_split, path)
        assert_answers(every_scorer(irn), every_scorer(other), differ_from=first)

    def test_second_fit(self, tiny_split, other):
        irn = fit(tiny_split, seed=0)
        first = every_scorer(irn)
        irn.seed = 1
        irn.fit(tiny_split)
        assert_answers(every_scorer(irn), every_scorer(other), differ_from=first)

    def test_load_pretrained_embeddings(self, tiny_split, rng):
        irn = fit(tiny_split, seed=0)
        first = irn.score_with_objective_batch(*CONTEXTS)
        vectors = rng.normal(scale=0.1, size=irn.module.item_embedding.weight.data.shape)
        irn.module.item_embedding.load_pretrained(vectors)
        # the same weights, loaded before its first program was compiled
        twin = fit(tiny_split, seed=0)
        twin.module.item_embedding.load_pretrained(vectors)
        scores = irn.score_with_objective_batch(*CONTEXTS)
        np.testing.assert_allclose(
            scores, twin.score_with_objective_batch(*CONTEXTS), rtol=0, atol=1e-12
        )
        finite = np.isfinite(first)
        assert not np.allclose(scores[finite], first[finite], rtol=0, atol=1e-6)


class TestConcurrentScorers:
    def test_threads_racing_the_compile_answer_like_serial_calls(self, tiny_split):
        """More threads than cores, a short switch interval, the first calls
        racing the compile: every answer equals the serial one, and no
        forward goes uncounted."""
        irn = fit(tiny_split, seed=0)
        reference = fit(tiny_split, seed=0)
        batches = [
            ([list(seq) + [1 + worker] for seq in CONTEXTS[0]], CONTEXTS[1], CONTEXTS[2])
            for worker in range(4)
        ]
        expected = [reference.score_with_objective_batch(*batch) for batch in batches]
        assert irn._compiled is None  # nothing compiled yet: the threads race for it
        rounds = 20
        start = threading.Barrier(len(batches))
        answers: "list[list[np.ndarray]]" = [[] for _ in batches]
        errors: "list[BaseException]" = []

        def work(worker: int) -> None:
            try:
                start.wait(timeout=10)
                for _ in range(rounds):
                    answers[worker].append(irn.score_with_objective_batch(*batches[worker]))
            except BaseException as exc:  # noqa: BLE001 - re-raised by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        for worker, scores in enumerate(answers):
            assert len(scores) == rounds
            for got in scores:
                np.testing.assert_allclose(got, expected[worker], rtol=0, atol=1e-12)
        assert irn.decode_stats.snapshot()["forwards"] == rounds * len(batches)


@pytest.mark.usefixtures("float64_program")
class TestRefusedAdvance:
    @pytest.mark.parametrize("num_layers", (1, 2), ids=["incremental", "shared"])
    def test_leaves_the_session_untouched(self, models, num_layers):
        irn = models(num_layers, MaskType.PERSONALIZED)
        _, session = irn.begin_decoding_session(*CONTEXTS)
        irn.advance_decoding_session(session, [1, 2, 3])
        assert session.incremental == (num_layers == 1)

        def snapshot():
            state = None
            if session.state is not None:
                state = [(cache.length, cache.keys.copy()) for cache in session.state]
            return (
                [list(row) for row in session.rows],
                session.roots.tolist(),
                session.users.tolist(),
                session.steps,
                session.width,
                state,
            )

        def assert_unchanged(before) -> None:
            after = snapshot()
            assert after[:5] == before[:5]
            if before[5] is not None:
                for (length, keys), (old_length, old_keys) in zip(after[5], before[5]):
                    assert length == old_length
                    np.testing.assert_array_equal(keys, old_keys)

        before = snapshot()
        forwards = irn.decode_stats.snapshot()["forwards"]
        for new_items, parents in (
            ([4, 5], [2, 0, 0]),  # one item short of the gathered rows
            ([4, 5], None),  # one short of the rows as they are
            ([4, 5], [0, 7]),  # a parent row that does not exist
        ):
            with pytest.raises(ConfigurationError):
                irn.advance_decoding_session(session, new_items, parents)
            assert_unchanged(before)
        assert irn.decode_stats.snapshot()["forwards"] == forwards
        # and the session still decodes
        scores = irn.advance_decoding_session(session, [4, 5], [2, 0])
        expected = irn.score_with_objective_batch(
            session.rows, session.objectives, list(session.users)
        )
        np.testing.assert_allclose(scores, expected, rtol=1e-7, atol=1e-8)
