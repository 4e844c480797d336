"""Unit tests for the autograd tensor engine."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.tensor import Tensor, concatenate, is_grad_enabled, no_grad, stack, where

from tests.nn.gradcheck import check_gradient


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_len_returns_leading_dimension(self):
        assert len(Tensor(np.zeros((5, 3)))) == 5

    def test_backward_on_non_scalar_requires_grad_argument(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a * 2
        with pytest.raises(RuntimeError):
            b.backward()

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()


class TestOneLiveGraph:
    """Backward frees the graph as it runs; only leaves keep a gradient."""

    @staticmethod
    def _graph():
        """``(leaves, non-leaves)``: a parameter and an input; the nodes up to the loss, loss last."""
        weight = Parameter(np.array([0.5, -1.0, 2.0]))
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        hidden = x * weight
        squashed = hidden.tanh()
        loss = (squashed + hidden).sum()  # ``hidden`` is read twice
        return (weight, x), (hidden, squashed, loss)

    def test_after_backward_only_leaves_hold_gradients(self):
        (weight, x), nodes = self._graph()
        nodes[-1].backward()
        slope = 1.0 - np.tanh(x.data * weight.data) ** 2 + 1.0
        assert np.allclose(weight.grad, slope * x.data)
        assert np.allclose(x.grad, slope * weight.data)
        for node in nodes:
            assert node.grad is None
            assert node._backward is None
            assert not node._parents

    def test_a_second_backward_raises_and_leaves_the_gradients(self):
        (weight, x), nodes = self._graph()
        nodes[-1].backward()
        grads = weight.grad.copy(), x.grad.copy()
        with pytest.raises(RuntimeError, match="already run backward"):
            nodes[-1].backward()
        assert np.array_equal(weight.grad, grads[0]) and np.array_equal(x.grad, grads[1])

    def test_a_loss_on_freed_nodes_raises(self):
        (weight, x), (hidden, _, loss) = self._graph()
        other = (hidden * hidden).sum()  # built before the first backward
        loss.backward()
        grads = weight.grad.copy(), x.grad.copy()
        with pytest.raises(RuntimeError, match="already run backward"):
            other.backward()
        with pytest.raises(RuntimeError, match="already run backward"):
            (hidden * 2.0).sum().backward()  # built after it
        assert np.array_equal(weight.grad, grads[0]) and np.array_equal(x.grad, grads[1])


class TestArithmetic:
    def test_add_and_mul_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])
        assert np.allclose((a * b).data, [3.0, 8.0])

    def test_scalar_operations(self):
        a = Tensor([2.0, 4.0])
        assert np.allclose((a + 1).data, [3.0, 5.0])
        assert np.allclose((1 - a).data, [-1.0, -3.0])
        assert np.allclose((a / 2).data, [1.0, 2.0])
        assert np.allclose((2 / a).data, [1.0, 0.5])
        assert np.allclose((a**2).data, [4.0, 16.0])

    def test_add_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_gradients(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3.0, 4.0])
        assert np.allclose(b.grad, [1.0, 2.0])

    def test_division_gradients(self):
        check_gradient(lambda x: (x / Tensor([2.0, 4.0, 8.0])).sum(), np.array([1.0, 2.0, 3.0]))
        check_gradient(lambda x: (Tensor([1.0, 1.0, 1.0]) / x).sum(), np.array([1.0, 2.0, 3.0]))

    def test_broadcast_add_gradient_shapes(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_broadcast_mul_gradient(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(2, 3))
        check_gradient(lambda x: (x * Tensor(np.array([[2.0], [3.0]]))).sum(), base)

    def test_gradient_accumulates_over_multiple_uses(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * 3 + a * 4
        b.sum().backward()
        assert np.allclose(a.grad, [7.0])

    @pytest.mark.parametrize(
        "op",
        [lambda x, c: x * c, lambda x, c: c * x, lambda x, c: x / c, lambda x, c: x - c],
        ids=["mul", "rmul", "div", "sub"],
    )
    def test_backward_skips_the_product_of_a_constant_operand(self, op):
        """A constant needs no gradient, so the backward of ``x * c`` (and
        ``x / c``, ``x - c``) computes nothing from ``x.data``: every array
        op reading it would only feed a gradient that is dropped."""

        class Counted(np.ndarray):
            ops = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                Counted.ops += 1
                inputs = tuple(np.asarray(value) for value in inputs)
                return getattr(ufunc, method)(*inputs, **kwargs)

        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        x.data = x.data.view(Counted)
        out = op(x, Tensor([2.0, 4.0, 8.0]))
        Counted.ops = 0
        out.backward(np.ones(3))
        assert Counted.ops == 0
        assert x.grad is not None


class TestNonlinearities:
    @pytest.mark.parametrize(
        "name",
        ["exp", "log", "tanh", "sigmoid", "relu", "sqrt"],
    )
    def test_elementwise_gradients(self, name):
        base = np.array([0.5, 1.0, 2.0, 3.0])
        check_gradient(lambda x: getattr(x, name)().sum(), base)

    def test_relu_zeroes_negative(self):
        assert np.allclose(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_clip_values_and_gradient(self):
        a = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        clipped = a.clip(0.0, 1.0)
        assert np.allclose(clipped.data, [0.0, 0.5, 1.0])
        clipped.sum().backward()
        assert np.allclose(a.grad, [0.0, 1.0, 0.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        assert a.sum(axis=0).shape == (3,)
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)
        assert a.sum().item() == pytest.approx(15.0)

    def test_mean_matches_numpy(self):
        data = np.arange(12.0).reshape(3, 4)
        assert np.allclose(Tensor(data).mean(axis=1).data, data.mean(axis=1))

    def test_sum_gradient_broadcasts_back(self):
        check_gradient(lambda x: (x.sum(axis=0) * Tensor([1.0, 2.0, 3.0])).sum(), np.ones((4, 3)))

    def test_mean_gradient(self):
        check_gradient(lambda x: x.mean(), np.arange(6.0).reshape(2, 3))

    def test_max_gradient_routes_to_argmax(self):
        a = Tensor([[1.0, 5.0, 3.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        assert np.allclose(a.grad, [[0.0, 1.0, 0.0]])

    def test_reshape_and_transpose_gradients(self):
        check_gradient(lambda x: (x.reshape(6) * Tensor(np.arange(6.0))).sum(), np.ones((2, 3)))
        check_gradient(
            lambda x: (x.transpose() * Tensor(np.arange(6.0).reshape(3, 2))).sum(), np.ones((2, 3))
        )

    def test_swapaxes_matches_numpy(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        assert np.allclose(Tensor(data).swapaxes(-1, -2).data, data.swapaxes(-1, -2))

    def test_getitem_slice_gradient(self):
        a = Tensor(np.arange(10.0), requires_grad=True)
        a[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        assert np.allclose(a.grad, expected)

    def test_getitem_fancy_index_accumulates(self):
        a = Tensor(np.zeros(4), requires_grad=True)
        picked = a[np.array([0, 0, 2])]
        picked.sum().backward()
        assert np.allclose(a.grad, [2.0, 0.0, 1.0, 0.0])


class TestMatmul:
    def test_matmul_values(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        assert np.allclose((Tensor(a) @ Tensor(b)).data, a @ b)

    def test_matmul_gradients_2d(self):
        rng = np.random.default_rng(1)
        b = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: (x @ b).sum(), rng.normal(size=(2, 3)))

    def test_matmul_gradients_batched(self):
        rng = np.random.default_rng(2)
        b = Tensor(rng.normal(size=(5, 4, 2)))
        check_gradient(lambda x: (x @ b).sum(), rng.normal(size=(5, 3, 4)))

    def test_matmul_broadcast_gradient_to_shared_weight(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 3, 4)))
        check_gradient(lambda w: (x @ w).sum(), rng.normal(size=(4, 2)))

    def test_vector_matrix_product(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(3, 2)))
        check_gradient(lambda x: (x @ w).sum(), rng.normal(size=(3,)))


class TestFreeFunctions:
    def test_concatenate_values_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)
        assert np.allclose(b.grad, 1.0)

    def test_stack_shapes_and_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        (out * Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])).sum().backward()
        assert np.allclose(a.grad, [1.0, 2.0, 3.0])
        assert np.allclose(b.grad, [4.0, 5.0, 6.0])

    def test_where_selects_and_routes_gradient(self):
        condition = np.array([True, False, True])
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        b = Tensor([10.0, 20.0, 30.0], requires_grad=True)
        out = where(condition, a, b)
        assert np.allclose(out.data, [1.0, 20.0, 3.0])
        out.sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0, 1.0])
        assert np.allclose(b.grad, [0.0, 1.0, 0.0])


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            b = a * 2
        assert not b.requires_grad
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()
