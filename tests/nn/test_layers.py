"""Unit tests for stateful modules (Module, Linear, Embedding, LayerNorm, ...)."""

import numpy as np
import pytest

from repro.nn.layers import (
    GELU,
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.tensor import Tensor
from repro.utils.exceptions import ConfigurationError


class _ToyModule(Module):
    def __init__(self):
        super().__init__()
        self.linear = Linear(4, 3, rng=0)
        self.scale = Parameter(np.ones(3))

    def forward(self, x):
        return self.linear(x) * self.scale


class TestModule:
    def test_parameter_registration_is_recursive(self):
        model = _ToyModule()
        names = {name for name, _ in model.named_parameters()}
        assert names == {"linear.weight", "linear.bias", "scale"}
        assert len(model.parameters()) == 3

    def test_num_parameters_counts_scalars(self):
        model = _ToyModule()
        assert model.num_parameters() == 4 * 3 + 3 + 3

    def test_train_eval_propagates(self):
        model = Sequential(Linear(2, 2, rng=0), Dropout(0.5), ReLU())
        model.eval()
        assert all(not module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())

    def test_zero_grad_clears_gradients(self):
        model = _ToyModule()
        out = model(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert model.linear.weight.grad is not None
        model.zero_grad()
        assert model.linear.weight.grad is None

    def test_state_dict_round_trip(self):
        source = _ToyModule()
        target = _ToyModule()
        target.load_state_dict(source.state_dict())
        for (_, a), (_, b) in zip(source.named_parameters(), target.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_load_state_dict_rejects_missing_keys(self):
        model = _ToyModule()
        state = model.state_dict()
        state.pop("scale")
        with pytest.raises(ConfigurationError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_shape_mismatch(self):
        model = _ToyModule()
        state = model.state_dict()
        state["scale"] = np.ones(5)
        with pytest.raises(ConfigurationError):
            model.load_state_dict(state)


class TestLinear:
    def test_output_shape_and_grad(self):
        layer = Linear(6, 4, rng=0)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 6)), requires_grad=True)
        out = layer(x)
        assert out.shape == (3, 4)
        out.sum().backward()
        assert layer.weight.grad.shape == (4, 6)
        assert layer.bias.grad.shape == (4,)
        assert x.grad.shape == (3, 6)

    def test_no_bias_option(self):
        layer = Linear(3, 2, bias=False, rng=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_batched_3d_input(self):
        layer = Linear(5, 2, rng=0)
        out = layer(Tensor(np.zeros((2, 7, 5))))
        assert out.shape == (2, 7, 2)


class TestEmbedding:
    def test_lookup_shape(self):
        table = Embedding(10, 4, rng=0)
        out = table(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_padding_row_is_zero(self):
        table = Embedding(10, 4, padding_idx=0, rng=0)
        assert np.allclose(table.weight.data[0], 0.0)

    def test_padding_row_receives_its_lookups_gradient(self):
        table = Embedding(5, 3, padding_idx=0, rng=0)
        table(np.array([0, 1, 0])).sum().backward()
        assert np.array_equal(table.weight.grad[0], np.full(3, 2.0))

    def test_load_pretrained_checks_shape(self):
        table = Embedding(5, 3, rng=0)
        with pytest.raises(ConfigurationError):
            table.load_pretrained(np.zeros((4, 3)))

    def test_load_pretrained_freeze(self):
        table = Embedding(5, 3, padding_idx=0, rng=0)
        vectors = np.ones((5, 3))
        table.load_pretrained(vectors, freeze=True)
        assert np.allclose(table.weight.data[1:], 1.0)
        assert np.allclose(table.weight.data[0], 0.0)
        assert not table.weight.requires_grad


class TestLayerNorm:
    def test_output_is_normalised(self, rng):
        layer = LayerNorm(8)
        x = Tensor(rng.normal(loc=3.0, scale=2.0, size=(4, 8)))
        out = layer(x).data
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_affine_parameters_apply(self, rng):
        layer = LayerNorm(4)
        layer.weight.data[:] = 2.0
        layer.bias.data[:] = 1.0
        out = layer(Tensor(rng.normal(size=(2, 4)))).data
        assert np.allclose(out.mean(axis=-1), 1.0, atol=1e-6)

    def test_gradients_flow(self, rng):
        layer = LayerNorm(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert layer.weight.grad is not None


class TestDropoutModule:
    def test_eval_mode_is_identity(self, rng):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        x = Tensor(rng.normal(size=(5, 5)))
        assert np.allclose(layer(x).data, x.data)

    def test_train_mode_zeroes_entries(self):
        layer = Dropout(0.5, rng=0)
        out = layer(Tensor(np.ones((50, 50))))
        assert (out.data == 0).any()

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestContainers:
    def test_sequential_applies_in_order(self):
        model = Sequential(Linear(3, 3, rng=0), ReLU(), Linear(3, 1, rng=1))
        out = model(Tensor(np.ones((2, 3))))
        assert out.shape == (2, 1)

    def test_module_list_registers_children(self):
        layers = ModuleList([Linear(2, 2, rng=0), Linear(2, 2, rng=1)])
        assert len(layers) == 2
        assert len(list(layers[0].parameters())) == 2
        names = {name for name, _ in layers.named_parameters()}
        assert "0.weight" in names and "1.bias" in names

    def test_gelu_module(self, rng):
        out = GELU()(Tensor(rng.normal(size=(3,))))
        assert out.shape == (3,)
