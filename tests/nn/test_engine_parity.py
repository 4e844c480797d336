"""The engine's gradient bookkeeping against the one it replaced, bit for bit.

A basic index scatters its gradient with ``full[index] += grad`` and a
non-leaf tensor adopts its first gradient instead of copying it; both must
train exactly what ``np.add.at`` and the defensive copy trained
(``tests/nn/reference_engine.py``), and no two parameters may end up
sharing a gradient buffer that ``clip_grad_norm`` would scale twice.
"""

import itertools

import numpy as np
import pytest

from repro.data.batching import iterate_batches
from repro.nn.layers import Parameter
from repro.nn.optim import clip_grad_norm
from repro.nn.tensor import Tensor, _is_basic_index

from tests.models.test_neural import FACTORIES
from tests.nn.reference_engine import use_reference_engine

SHAPE = (4, 5, 6)

#: ``(index, basic)`` — every basic form, and the fancy / boolean ones that
#: must keep the scatter
INDICES = [
    (2, True),
    (-1, True),
    (np.int64(-3), True),
    (slice(1, None), True),
    (slice(None, None, -1), True),
    (slice(4, 0, -2), True),
    ((slice(None), slice(None, -1), slice(None)), True),
    ((slice(None), -1), True),
    ((None, 1), True),
    ((Ellipsis, 3), True),
    ((1, Ellipsis, slice(None, None, -3)), True),
    ((slice(None), None, 2, slice(1, 5, 2)), True),
    (np.array([0, 2, 2, 3, 0]), False),
    ((np.array([1, 1, 3]), slice(None), np.array([0, 0, 5])), False),
    ([3, 3, 1], False),
    (np.arange(4) % 2 == 0, False),
    ((slice(None), np.array([True, False, True, True, False])), False),
    (True, False),
]


def _bits(array: np.ndarray) -> bytes:
    """Every bit of ``array`` — ``np.array_equal`` would call -0.0 and 0.0 equal."""
    return np.ascontiguousarray(array).tobytes()


class TestGetitemGradient:
    @pytest.mark.parametrize("index, basic", INDICES, ids=lambda value: repr(value)[:40])
    def test_gradient_equals_add_at_bit_for_bit(self, index, basic):
        rng = np.random.default_rng(0)
        leaf = Tensor(rng.normal(size=SHAPE), requires_grad=True)
        picked = leaf[index]
        grad = rng.normal(size=picked.shape)
        grad.reshape(-1)[::3] = -0.0  # 0.0 + -0.0 is +0.0: a plain assignment would differ
        picked.backward(grad)
        expected = np.zeros(SHAPE)
        np.add.at(expected, index, grad)
        assert _is_basic_index(index) is basic
        assert _bits(leaf.grad) == _bits(expected)


class TestGradientBuffers:
    def test_a_strided_first_gradient_is_copied_contiguous(self):
        hidden = Tensor(np.ones(SHAPE), requires_grad=True) * 2.0
        hidden.transpose().sum().backward()  # hands ``hidden`` a transposed view
        assert hidden.grad.flags.c_contiguous

    def test_parameters_sharing_an_operand_get_their_own_buffers(self):
        a, b = Parameter(np.ones(3)), Parameter(np.ones(3))
        (a + b).sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        norm = clip_grad_norm([a, b], 1.0)
        assert norm == pytest.approx(np.sqrt(6.0))
        # each buffer scaled once, so the clipped global norm is max_norm
        assert np.sqrt(np.sum(a.grad**2) + np.sum(b.grad**2)) == pytest.approx(1.0)


def _history(model) -> list[tuple]:
    """``training_history`` without its wall-clock ``seconds``."""
    return [
        (record["epoch"], record["train_loss"], record["validation_loss"], record["lr"])
        for record in model.training_history
    ]


@pytest.mark.parametrize("name", list(FACTORIES))
class TestTrainingParity:
    def test_weights_and_losses_equal_the_reference_engine(self, name, tiny_split, monkeypatch):
        fitted = FACTORIES[name]().fit(tiny_split)
        use_reference_engine(monkeypatch)
        reference = FACTORIES[name]().fit(tiny_split)
        weights, expected = fitted.module.state_dict(), reference.module.state_dict()
        assert weights.keys() == expected.keys()
        for key in expected:
            assert np.array_equal(weights[key], expected[key]), key
        assert np.array_equal(_history(fitted), _history(reference), equal_nan=True)

    def test_no_two_parameters_share_a_gradient_buffer(self, name, tiny_split):
        model = FACTORIES[name]()
        model.epochs = 1
        model.fit(tiny_split)
        batch = next(iterate_batches(tiny_split.train, 32, scheme=model.padding_scheme, seed=0))
        model.module.train()
        model._loss(model._truncate(batch), np.random.default_rng(0)).backward()
        grads = [p.grad for p in model.module.parameters() if p.grad is not None]
        assert len(grads) > 1
        for first, second in itertools.combinations(grads, 2):
            assert not np.shares_memory(first, second)
