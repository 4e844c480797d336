"""Unit tests for stateless nn operations."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from tests.nn.gradcheck import check_gradient
from tests.nn.reference_engine import log_softmax


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        logits = Tensor(rng.normal(size=(4, 7)))
        probs = F.softmax(logits, axis=-1)
        assert np.allclose(probs.data.sum(axis=-1), 1.0)
        assert np.all(probs.data >= 0)

    def test_invariant_to_constant_shift(self, rng):
        logits = rng.normal(size=(3, 5))
        p1 = F.softmax(Tensor(logits)).data
        p2 = F.softmax(Tensor(logits + 100.0)).data
        assert np.allclose(p1, p2)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        # the composite cross entropy's log-softmax, kept as the fused loss's oracle
        logits = Tensor(rng.normal(size=(2, 6)))
        assert np.allclose(log_softmax(logits).data, np.log(F.softmax(logits).data))

    def test_softmax_handles_large_values(self):
        probs = F.softmax(Tensor([[1000.0, 0.0]])).data
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_softmax_gradient(self, rng):
        base = rng.normal(size=(3, 4))
        check_gradient(lambda x: (F.softmax(x, axis=-1) ** 2).sum(), base)


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        loss = F.cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -np.mean(log_probs[np.arange(5), targets])
        assert loss == pytest.approx(expected)

    def test_ignore_index_excludes_positions(self, rng):
        logits = rng.normal(size=(4, 3))
        full = F.cross_entropy(Tensor(logits), np.array([0, 1, 2, 1])).item()
        partial = F.cross_entropy(Tensor(logits), np.array([0, 1, 0, 0]), ignore_index=0).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        assert partial == pytest.approx(-log_probs[1, 1])
        assert partial != pytest.approx(full)

    def test_reductions(self, rng):
        logits = Tensor(rng.normal(size=(3, 4)))
        targets = np.array([1, 2, 3])
        none = F.cross_entropy(logits, targets, reduction="none")
        assert none.shape == (3,)
        assert F.cross_entropy(logits, targets, reduction="sum").item() == pytest.approx(
            none.data.sum()
        )
        with pytest.raises(ValueError):
            F.cross_entropy(logits, targets, reduction="bogus")

    def test_sequence_shaped_targets(self, rng):
        logits = Tensor(rng.normal(size=(2, 5, 4)))
        targets = rng.integers(0, 4, size=(2, 5))
        loss = F.cross_entropy(logits, targets)
        assert np.isfinite(loss.item())

    def test_gradient(self, rng):
        targets = np.array([0, 2, 1])
        check_gradient(
            lambda x: F.cross_entropy(x, targets, reduction="sum"), rng.normal(size=(3, 4))
        )

    def test_training_reduces_loss(self, rng):
        logits = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        targets = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        initial = F.cross_entropy(logits, targets).item()
        for _ in range(50):
            logits.zero_grad()
            loss = F.cross_entropy(logits, targets)
            loss.backward()
            logits.data -= 0.5 * logits.grad
        assert F.cross_entropy(logits, targets).item() < initial


class TestOtherLosses:
    def test_bce_with_logits_matches_reference(self, rng):
        logits = rng.normal(size=(6,))
        targets = rng.integers(0, 2, size=6).astype(float)
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probs) + (1 - targets) * np.log(1 - probs))
        assert loss == pytest.approx(expected, rel=1e-6)

    def test_bce_gradient(self, rng):
        targets = np.array([1.0, 0.0, 1.0])
        check_gradient(
            lambda x: F.binary_cross_entropy_with_logits(x, targets, reduction="sum"),
            rng.normal(size=(3,)),
        )

    def test_mse(self):
        prediction = Tensor([1.0, 2.0, 3.0])
        assert F.mean_squared_error(prediction, np.array([1.0, 2.0, 5.0])).item() == pytest.approx(
            4.0 / 3.0
        )


class TestDropoutAndMisc:
    def test_dropout_disabled_in_eval(self, rng):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_dropout_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.25, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)
        assert (out.data == 0).mean() == pytest.approx(0.25, abs=0.05)

    def test_dropout_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor([1.0]), 1.0, training=True, rng=rng)

    def test_gelu_reference_values(self):
        # GELU(0) = 0 and GELU is close to identity for large positive inputs.
        values = F.gelu(Tensor([0.0, 5.0, -5.0])).data
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(5.0, abs=1e-3)
        assert values[2] == pytest.approx(0.0, abs=1e-3)

    def test_gelu_gradient(self, rng):
        check_gradient(lambda x: F.gelu(x).sum(), rng.normal(size=(6,)))

    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2]), num_classes=3)
        assert np.allclose(encoded, [[1, 0, 0], [0, 0, 1]])

    def test_embedding_lookup_gradient(self):
        weight = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = F.embedding(weight, np.array([[1, 1], [3, 0]]))
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        assert np.allclose(weight.grad[1], 2.0)
        assert np.allclose(weight.grad[2], 0.0)

    def test_linear_matches_manual(self, rng):
        x = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2,)))
        assert np.allclose(F.linear(x, w, b).data, x.data @ w.data.T + b.data)
