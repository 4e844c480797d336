"""Property and contract tests for the fused inference attention kernel.

The graph-building :func:`repro.nn.attention.scaled_dot_product_attention`
is the parity oracle: in float64 the fused kernel applies the same
elementwise and BLAS operations in the same order, so the two paths must
agree essentially bit-for-bit (asserted here to 1e-12) under random masks,
head counts and cache-row gathers.  The in-place tensor ops share the same
legality rule — inference only — and are covered alongside.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.kv import LayerKVCache
from repro.nn import functional as F
from repro.nn import inference
from repro.nn.attention import NEG_INF, MultiHeadAttention, scaled_dot_product_attention
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import TransformerEncoderLayer, causal_mask
from repro.utils.exceptions import ConfigurationError

TOL = 1e-12


def random_mask(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """An additive mask mixing open, forbidden and finite-weight positions."""
    mask = np.zeros(shape)
    kinds = rng.integers(0, 3, size=shape)
    mask[kinds == 1] = NEG_INF
    mask[kinds == 2] = rng.normal(size=int((kinds == 2).sum()))
    # Keep at least one open key per query row so softmax rows stay finite.
    mask[..., 0] = 0.0
    return mask


class TestFusedMatchesGraph:
    def test_property_random_shapes_and_masks(self, rng):
        """20 random (batch, heads, q, k, d) draws with random masks."""
        for _ in range(20):
            batch = int(rng.integers(1, 5))
            heads = int(rng.choice([1, 2, 4]))
            q_len = int(rng.integers(1, 6))
            k_len = int(rng.integers(q_len, 12))
            d_head = int(rng.choice([2, 4, 8]))
            q = rng.normal(size=(batch, heads, q_len, d_head))
            k = rng.normal(size=(batch, heads, k_len, d_head))
            v = rng.normal(size=(batch, heads, k_len, d_head))
            mask_shape = {
                0: (1, 1, q_len, k_len),
                1: (batch, 1, q_len, k_len),
                2: (batch, heads, q_len, k_len),
            }[int(rng.integers(0, 3))]
            mask = random_mask(rng, mask_shape)
            with no_grad():
                fused_out, fused_w = F.fused_attention(q, k, v, mask=mask)
                graph_out, graph_w = scaled_dot_product_attention(
                    Tensor(q), Tensor(k), Tensor(v), mask=mask, fused=False
                )
            np.testing.assert_allclose(fused_out, graph_out.data, rtol=0, atol=TOL)
            np.testing.assert_allclose(fused_w, graph_w.data, rtol=0, atol=TOL)

    def test_no_mask(self, rng):
        q = rng.normal(size=(2, 2, 3, 4))
        k = rng.normal(size=(2, 2, 5, 4))
        v = rng.normal(size=(2, 2, 5, 4))
        with no_grad():
            fused_out, _ = F.fused_attention(q, k, v)
            graph_out, _ = scaled_dot_product_attention(
                Tensor(q), Tensor(k), Tensor(v), fused=False
            )
        np.testing.assert_allclose(fused_out, graph_out.data, rtol=0, atol=TOL)

    def test_cache_row_gathers_keep_parity(self, rng):
        """``block`` attending over arena views after beam-style reorders.

        One layer, so cached K/V are projections of the inputs alone and any
        mask on the newest row keeps incremental == full.  Oracle: the graph
        forward of the same layer over each row's whole input.
        """
        graph = TransformerEncoderLayer(d_model=8, num_heads=2, dropout=0.0, rng=0)
        graph.eval()
        layer = inference.compile_layer(graph)
        inputs = rng.normal(size=(4, 6, 8))
        _, keys, values = inference.block(layer, inputs, causal_mask(6))
        cache = LayerKVCache()
        cache.extend(keys, values)
        for _ in range(5):
            rows = rng.integers(0, cache.batch_size, size=int(rng.integers(2, 6)))
            cache.reorder(rows)
            step = rng.normal(size=(len(rows), 1, 8))
            inputs = np.concatenate([inputs[rows], step], axis=1)
            length = inputs.shape[1]
            mask = np.repeat(causal_mask(length)[None], len(rows), axis=0)
            mask[:, -1:, :] = random_mask(rng, (len(rows), 1, length))
            out, keys, values = inference.block(
                layer, step, mask[:, -1:, :], prefix_kv=(cache.keys, cache.values)
            )
            cache.extend(keys, values)
            assert cache.length == length
            expected = graph(Tensor(inputs), mask=mask)
            assert expected.requires_grad  # the graph path, not the fused one
            np.testing.assert_allclose(out[:, 0], expected.data[:, -1], rtol=0, atol=1e-10)


class TestDispatchAndGuards:
    def test_fused_attention_raises_under_grad(self, rng):
        q = rng.normal(size=(1, 1, 2, 4))
        with pytest.raises(ConfigurationError, match="no_grad"):
            F.fused_attention(q, q, q)

    def test_sdpa_explicit_fused_raises_under_grad(self, rng):
        q = Tensor(rng.normal(size=(1, 1, 2, 4)))
        with pytest.raises(ConfigurationError):
            scaled_dot_product_attention(q, q, q, fused=True)

    def test_sdpa_defaults_to_graph_under_grad(self, rng):
        q = Tensor(rng.normal(size=(1, 1, 2, 4)), requires_grad=True)
        out, _ = scaled_dot_product_attention(q, q, q)
        assert out.requires_grad  # the training path built a graph

    def test_unknown_strategy_raises(self, rng):
        """One score contraction remains (batched matmul): there is no strategy to pick."""
        q = rng.normal(size=(1, 1, 2, 4))
        with no_grad(), pytest.raises(TypeError, match="strategy"):
            F.fused_attention(q, q, q, strategy="einsum")

    def test_multi_head_module_fused_matches_graph(self, rng):
        attention = MultiHeadAttention(d_model=8, num_heads=2, dropout=0.0, rng=0)
        attention.eval()
        x = Tensor(rng.normal(size=(3, 5, 8)))
        mask = random_mask(rng, (3, 1, 5, 5))
        with no_grad():
            fused = attention(x, mask=mask)  # default: fused under no_grad
            fused_weights = attention.last_attention
            graph = attention(x, mask=mask, fused=False)
            graph_weights = attention.last_attention
        np.testing.assert_allclose(fused.data, graph.data, rtol=0, atol=TOL)
        np.testing.assert_allclose(fused_weights, graph_weights, rtol=0, atol=TOL)

    def test_multi_head_module_explicit_fused_under_grad_raises(self, rng):
        attention = MultiHeadAttention(d_model=8, num_heads=2, dropout=0.0, rng=0)
        x = Tensor(rng.normal(size=(1, 3, 8)))
        with pytest.raises(ConfigurationError):
            attention(x, fused=True)


class TestSoftmaxInPlace:
    def test_matches_graph_softmax_and_reuses_buffer(self, rng):
        scores = rng.normal(size=(2, 3, 4))
        expected = F.softmax(Tensor(scores.copy()), axis=-1).data
        result = F.softmax_(scores)
        assert result is scores  # mutated in place, returned for chaining
        np.testing.assert_allclose(result, expected, rtol=0, atol=TOL)

    def test_large_logits_stay_stable(self):
        scores = np.array([[1000.0, 1001.0, 999.0]])
        result = F.softmax_(scores)
        assert np.isfinite(result).all()
        np.testing.assert_allclose(result.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


class TestInPlaceTensorOps:
    def test_raise_when_grad_enabled(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        with pytest.raises(ConfigurationError, match="no_grad"):
            x.add_(1.0)
        with pytest.raises(ConfigurationError):
            x.mul_(2.0)
        with pytest.raises(ConfigurationError):
            x.masked_fill_(np.eye(3, dtype=bool), 0.0)

    def test_add_mutates_in_place_and_returns_self(self, rng):
        data = rng.normal(size=(2, 3))
        other = rng.normal(size=(2, 3))
        x = Tensor(data.copy())
        buffer = x.data
        with no_grad():
            result = x.add_(other)
        assert result is x and x.data is buffer
        np.testing.assert_allclose(x.data, data + other, rtol=0, atol=TOL)

    def test_add_accepts_tensor_operand(self, rng):
        x = Tensor(rng.normal(size=(4,)))
        y = Tensor(rng.normal(size=(4,)))
        expected = x.data + y.data
        with no_grad():
            x.add_(y)
        np.testing.assert_allclose(x.data, expected, rtol=0, atol=TOL)

    def test_mul_and_masked_fill(self, rng):
        data = rng.normal(size=(3, 3))
        x = Tensor(data.copy())
        mask = np.eye(3, dtype=bool)
        with no_grad():
            x.mul_(2.0)
            x.masked_fill_(mask, -1.5)
        expected = data * 2.0
        expected[mask] = -1.5
        np.testing.assert_allclose(x.data, expected, rtol=0, atol=TOL)
