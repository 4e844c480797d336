"""Tests for the autograd-based sequential recommenders.

Training budgets are intentionally tiny (1-2 epochs on the tiny corpus); the
tests check interface contracts, learning signal (loss decreases) and basic
recommendation sanity rather than final accuracy.  With grad off every
model infers through its plain graph forward; ``TestNoGradInference`` holds
that forward to the grad-enabled one, bit for bit.
"""

import contextlib
import sys

import numpy as np
import pytest

from repro.core.irn import IRN
from repro.data.padding import PAD_INDEX
from repro.models import base
from repro.models.bert4rec import Bert4Rec
from repro.models.caser import Caser
from repro.models.gru4rec import GRU4Rec
from repro.models.sasrec import SASRec


def _tiny_kwargs():
    return dict(embedding_dim=12, epochs=2, batch_size=32, max_sequence_length=16, seed=0)


FACTORIES = {
    "gru4rec": lambda: GRU4Rec(hidden_size=12, **_tiny_kwargs()),
    "sasrec": lambda: SASRec(num_heads=2, num_layers=1, **_tiny_kwargs()),
    "caser": lambda: Caser(window=4, num_horizontal=4, num_vertical=1, **_tiny_kwargs()),
    "bert4rec": lambda: Bert4Rec(num_heads=2, num_layers=1, **_tiny_kwargs()),
    "irn": lambda: IRN(user_dim=4, num_heads=2, num_layers=1, item2vec_init=False,
                       **_tiny_kwargs()),
}
BASELINES = ["gru4rec", "sasrec", "caser", "bert4rec"]


@pytest.fixture(scope="module")
def fitted_models(tiny_split):
    """``name -> model``, each fitted once per module on the tiny split."""
    fitted = {}

    def get(name):
        if name not in fitted:
            fitted[name] = FACTORIES[name]().fit(tiny_split)
        return fitted[name]

    return get


@pytest.fixture(scope="module", params=BASELINES)
def fitted_neural_model(request, fitted_models):
    """Each baseline neural model, fitted once per module."""
    return fitted_models(request.param)


def _recording(monkeypatch, owner, name):
    """Wrap the callable ``owner.name``; returns the list of what it returned."""
    results = []
    original = getattr(owner, name)

    def record(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, record)
    return results


class TestNeuralModelContract:
    def test_score_shape_and_padding_masked(self, fitted_neural_model, tiny_split):
        scores = fitted_neural_model.score_next([1, 2, 3], user_index=0)
        assert scores.shape == (tiny_split.corpus.vocab.size,)
        assert scores[PAD_INDEX] == -np.inf
        assert np.isfinite(scores[1:]).all()

    def test_empty_history_supported(self, fitted_neural_model):
        scores = fitted_neural_model.score_next([], user_index=0)
        assert np.isfinite(scores[1:]).all()

    def test_long_history_is_truncated(self, fitted_neural_model, tiny_split):
        vocab_size = tiny_split.corpus.vocab.size
        long_history = list(np.random.default_rng(0).integers(1, vocab_size, size=200))
        scores = fitted_neural_model.score_next(long_history, user_index=0)
        assert np.isfinite(scores[1:]).all()

    def test_training_loss_decreases(self, fitted_neural_model):
        history = fitted_neural_model.training_history
        assert len(history) == 2
        assert history[-1]["train_loss"] <= history[0]["train_loss"] + 0.05

    def test_scores_depend_on_history(self, fitted_neural_model, tiny_split):
        sequences = tiny_split.train
        history_a = list(sequences[0].items[:5])
        history_b = list(sequences[1].items[:5])
        if history_a == history_b:
            pytest.skip("identical histories in tiny corpus")
        scores_a = fitted_neural_model.score_next(history_a, user_index=0)
        scores_b = fitted_neural_model.score_next(history_b, user_index=0)
        assert not np.allclose(scores_a, scores_b)

    def test_probabilities_are_normalised(self, fitted_neural_model):
        probs = fitted_neural_model.probabilities([1, 2, 3], user_index=0)
        assert probs.sum() == pytest.approx(1.0)


class TestNoGradInference:
    """Grad off, the models infer and validate through the plain graph
    forward; with grad on (the training path) it must read the same."""

    def test_score_next_equals_the_grad_enabled_forward(
        self, fitted_neural_model, tiny_split, monkeypatch
    ):
        model = fitted_neural_model
        rng = np.random.default_rng(7)
        vocab_size = tiny_split.corpus.vocab.size
        histories = [list(rng.integers(1, vocab_size, size=n)) for n in (0, 1, 2, 5, 15, 16, 40)]
        expected = [model.score_next(history, user_index=1) for history in histories]
        outputs = _recording(monkeypatch, model.module, "forward")
        monkeypatch.setattr(sys.modules[type(model).__module__], "no_grad", contextlib.nullcontext)
        for history, scores in zip(histories, expected):
            assert np.array_equal(model.score_next(history, user_index=1), scores)
        assert len(outputs) == len(histories)
        assert all(output.requires_grad for output in outputs)

    @pytest.mark.parametrize("name", BASELINES + ["irn"])
    def test_validation_loss_builds_no_graph(self, name, fitted_models, tiny_split, monkeypatch):
        model = fitted_models(name)
        losses = _recording(monkeypatch, model, "_loss")
        try:
            value = model._validation_loss(tiny_split, np.random.default_rng(3))
        finally:
            model.module.eval()  # _validation_loss leaves the module in train mode
        assert isinstance(value, float) and np.isfinite(value)
        assert losses and not any(loss.requires_grad for loss in losses)

    @pytest.mark.parametrize("name", BASELINES + ["irn"])
    def test_validation_loss_equals_the_grad_enabled_loss(
        self, name, fitted_models, tiny_split, monkeypatch
    ):
        model = fitted_models(name)
        try:
            expected = model._validation_loss(tiny_split, np.random.default_rng(3))
            losses = _recording(monkeypatch, model, "_loss")
            monkeypatch.setattr(base, "no_grad", contextlib.nullcontext)
            assert model._validation_loss(tiny_split, np.random.default_rng(3)) == expected
        finally:
            model.module.eval()
        assert losses and all(loss.requires_grad for loss in losses)


class TestModelSpecificBehaviour:
    def test_gru4rec_validation_loss_recorded(self, tiny_split):
        model = GRU4Rec(hidden_size=8, embedding_dim=8, epochs=1, max_sequence_length=12, seed=0)
        model.fit(tiny_split)
        assert not np.isnan(model.training_history[0]["validation_loss"])

    def test_sasrec_better_than_random_on_transitions(self, tiny_split):
        """On average the observed next item gets more mass than a random item."""
        model = SASRec(num_heads=2, num_layers=1, embedding_dim=16, epochs=4,
                       max_sequence_length=16, seed=0).fit(tiny_split)
        vocab_size = tiny_split.corpus.vocab.size
        rng = np.random.default_rng(2)
        true_mass, random_mass = [], []
        for sequence in tiny_split.train[:40]:
            items = list(sequence.items)
            if len(items) < 4:
                continue
            history, nxt = items[:-1], items[-1]
            probs = model.probabilities(history, user_index=sequence.user_index)
            true_mass.append(probs[nxt])
            random_mass.append(probs[int(rng.integers(1, vocab_size))])
        assert np.mean(true_mass) > np.mean(random_mass)

    def test_caser_uses_fixed_window(self, tiny_split):
        model = Caser(window=4, num_horizontal=2, num_vertical=1, embedding_dim=8,
                      epochs=1, max_sequence_length=12, seed=0).fit(tiny_split)
        # Only the last `window` items matter for the score.
        long_history = [1, 2, 3, 4, 5, 6, 7, 8]
        short_history = long_history[-4:]
        assert np.allclose(
            model.score_next(long_history, user_index=0),
            model.score_next(short_history, user_index=0),
        )

    def test_bert4rec_mask_token_is_out_of_vocab(self, tiny_split):
        model = Bert4Rec(num_heads=2, num_layers=1, embedding_dim=8, epochs=1,
                         max_sequence_length=12, seed=0).fit(tiny_split)
        assert model.module.mask_token == tiny_split.corpus.vocab.size
        scores = model.score_next([1, 2, 3])
        # scores cover only real vocabulary entries, not the mask token row
        assert scores.shape == (tiny_split.corpus.vocab.size,)


class TestTrainingHeap:
    """A fit keeps the heap between steps and hands it back when it ends."""

    def test_a_fit_sets_the_allocator_policy_then_trims(self, tiny_split, monkeypatch):
        calls = []
        monkeypatch.setattr(base, "_libc_call", lambda name, *args: calls.append((name, *args)))
        FACTORIES["gru4rec"]().fit(tiny_split)
        # M_MMAP_THRESHOLD (-3) at 32 MiB and M_TRIM_THRESHOLD (-1) at 128 MiB
        assert calls == [("mallopt", -3, 32 << 20), ("mallopt", -1, 128 << 20), ("malloc_trim", 0)]

    def test_a_missing_allocator_function_does_nothing(self):
        assert base._libc_call("no_such_allocator_function", 0) is None

    def test_a_fit_that_raises_still_trims(self, tiny_split, monkeypatch):
        calls = []
        monkeypatch.setattr(base, "_libc_call", lambda name, *args: calls.append((name, *args)))
        model = FACTORIES["gru4rec"]()

        def failing_step(batch, rng):
            raise RuntimeError("the step failed")

        monkeypatch.setattr(model, "_loss", failing_step)
        with pytest.raises(RuntimeError, match="the step failed"):
            model.fit(tiny_split)
        assert calls[-1] == ("malloc_trim", 0)
