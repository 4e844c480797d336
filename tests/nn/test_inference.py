"""Unit tests for the primitives of the compiled inference program.

Each module-level function of :mod:`repro.nn.inference` is held to the
graph-building module it replaces at inference, with grad enabled: the
oracle is the training path itself.  The scorer-level acceptance lives in
``tests/core/test_inference_program.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.kv import LayerKVCache
from repro.nn import functional as F
from repro.nn import inference
from repro.nn.attention import NEG_INF, scaled_dot_product_attention
from repro.nn.layers import LayerNorm
from repro.nn.tensor import Tensor
from repro.nn.transformer import PositionwiseFeedForward, TransformerEncoderLayer, causal_mask
from repro.utils.exceptions import ConfigurationError

ATOL = 1e-12


@pytest.fixture()
def graph_layer(rng):
    layer = TransformerEncoderLayer(d_model=8, num_heads=2, dropout=0.0, rng=3)
    for parameter in layer.parameters():  # off the init's ones/zeros, so every term counts
        parameter.data = parameter.data + rng.normal(scale=0.1, size=parameter.data.shape)
    layer.eval()
    return layer


def random_mask(rng, shape) -> np.ndarray:
    mask = rng.normal(size=shape)
    mask[rng.random(size=shape) < 0.3] = NEG_INF
    mask[..., 0] = 0.0  # one open key per query
    return mask


class TestPrimitives:
    def test_layer_norm_matches_the_module(self, rng):
        norm = LayerNorm(6)
        norm.weight.data = rng.normal(size=6)
        norm.bias.data = rng.normal(size=6)
        x = rng.normal(size=(3, 4, 6))
        untouched = x.copy()
        out = inference.layer_norm(x, norm.weight.data, norm.bias.data, norm.eps)
        np.testing.assert_allclose(out, norm(Tensor(x, requires_grad=True)).data, rtol=0, atol=ATOL)
        np.testing.assert_array_equal(x, untouched)

    def test_gelu_matches_the_graph_and_works_in_place(self, rng):
        x = rng.normal(scale=3.0, size=(5, 7))
        expected = F.gelu(Tensor(x.copy(), requires_grad=True)).data
        assert inference.gelu_(x) is x
        np.testing.assert_allclose(x, expected, rtol=0, atol=ATOL)

    @pytest.mark.parametrize("prefix", (0, 3))
    def test_attend_matches_the_graph_over_prefix_and_own_keys(self, rng, prefix):
        q = rng.normal(size=(3, 2, 4, 5))
        k = rng.normal(size=(3, 2, 6, 5))
        v = rng.normal(size=(3, 2, 6, 5))
        mask = random_mask(rng, (3, 1, 4, 6))
        expected, _ = scaled_dot_product_attention(
            Tensor(q, requires_grad=True), Tensor(k), Tensor(v), mask=mask
        )
        split = (k[:, :, :prefix], v[:, :, :prefix]) if prefix else None
        out = inference.attend(q, k[:, :, prefix:], v[:, :, prefix:], mask, split)
        np.testing.assert_allclose(out, expected.data, rtol=0, atol=ATOL)


class TestSoftmaxInPlace:
    def test_matches_graph_softmax_and_reuses_buffer(self, rng):
        scores = rng.normal(size=(2, 3, 4))
        expected = F.softmax(Tensor(scores.copy(), requires_grad=True), axis=-1).data
        result = inference.softmax_(scores)
        assert result is scores  # mutated in place, returned for chaining
        np.testing.assert_allclose(result, expected, rtol=0, atol=ATOL)

    def test_large_logits_stay_stable(self):
        scores = np.array([[1000.0, 1001.0, 999.0]])
        result = inference.softmax_(scores)
        assert np.isfinite(result).all()
        np.testing.assert_allclose(result.sum(axis=-1), 1.0, rtol=0, atol=ATOL)


class TestBlock:
    def test_full_block_matches_the_graph_layer(self, graph_layer, rng):
        x = rng.normal(size=(3, 5, 8))
        mask = random_mask(rng, (3, 5, 5))
        expected = graph_layer(Tensor(x, requires_grad=True), mask=mask)
        assert expected.requires_grad
        layer = inference.compile_layer(graph_layer, np.float64)
        out, keys, values = inference.block(layer, x, mask)
        np.testing.assert_allclose(out, expected.data, rtol=0, atol=ATOL)
        assert keys.shape == values.shape == (3, 2, 5, 4)

    @pytest.mark.parametrize(
        "queries", (slice(-2, -1), slice(0, 3), np.asarray([4]), np.asarray([0, 3])), ids=str
    )
    def test_named_queries_are_the_gathered_rows_of_the_full_block(
        self, graph_layer, rng, queries
    ):
        layer = inference.compile_layer(graph_layer, np.float64)
        x = rng.normal(size=(2, 5, 8))
        mask = random_mask(rng, (2, 5, 5))
        full, keys, values = inference.block(layer, x, mask)
        out, some_keys, some_values = inference.block(layer, x, mask, queries=queries)
        np.testing.assert_allclose(out, full[:, queries], rtol=0, atol=ATOL)
        # keys/values still cover every column
        np.testing.assert_allclose(some_keys, keys, rtol=0, atol=ATOL)
        np.testing.assert_allclose(some_values, values, rtol=0, atol=ATOL)

    def test_prefix_kv_continues_a_causal_sequence(self, graph_layer, rng):
        layer = inference.compile_layer(graph_layer, np.float64)
        x = rng.normal(size=(2, 6, 8))
        full, _, _ = inference.block(layer, x, causal_mask(6))
        _, keys, values = inference.block(layer, x[:, :4], causal_mask(4))
        out, _, _ = inference.block(
            layer, x[:, 4:], causal_mask(6)[4:], prefix_kv=(keys, values)
        )
        np.testing.assert_allclose(out, full[:, 4:], rtol=0, atol=ATOL)

    def test_cache_row_gathers_keep_parity(self, rng):
        """``block`` attending over arena views after beam-style reorders.

        One layer, so cached K/V are projections of the inputs alone and any
        mask on the newest row keeps incremental == full.  Oracle: the graph
        forward of the same layer over each row's whole input.
        """
        graph = TransformerEncoderLayer(d_model=8, num_heads=2, dropout=0.0, rng=0)
        graph.eval()
        layer = inference.compile_layer(graph, np.float64)
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
            assert expected.requires_grad  # grad on: the training path is the oracle
            np.testing.assert_allclose(out[:, 0], expected.data[:, -1], rtol=0, atol=1e-10)

    def test_keys_values_alone(self, graph_layer, rng):
        layer = inference.compile_layer(graph_layer, np.float64)
        x = rng.normal(size=(2, 5, 8))
        _, keys, values = inference.block(layer, x, causal_mask(5))
        fused = inference.keys_values(layer, x)
        assert fused.shape == (2, 5, 16)
        only_keys, only_values = inference.split_heads(fused, 2, layer.heads, 8)
        np.testing.assert_allclose(only_keys, keys, rtol=0, atol=ATOL)
        np.testing.assert_allclose(only_values, values, rtol=0, atol=ATOL)

    def test_a_float32_layer_computes_in_single_precision(self, graph_layer, rng):
        x = rng.normal(size=(2, 5, 8))
        mask = causal_mask(5)
        reference, _, _ = inference.block(
            inference.compile_layer(graph_layer, np.float64), x, mask
        )
        layer = inference.compile_layer(graph_layer)  # float32, the default
        out, keys, values = inference.block(
            layer, x.astype(np.float32), mask.astype(np.float32)
        )
        assert out.dtype == keys.dtype == values.dtype == np.float32
        np.testing.assert_allclose(out, reference, rtol=0, atol=5e-4)
        assert np.abs(out - reference).max() > 0

    def test_only_gelu_blocks_compile(self, graph_layer):
        graph_layer.feed_forward = PositionwiseFeedForward(8, 32, activation="relu", rng=0)
        with pytest.raises(ConfigurationError, match="relu"):
            inference.compile_layer(graph_layer)
