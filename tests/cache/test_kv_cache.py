"""Unit and parity tests for the nn-level incremental decoding cache.

The exactness contract of :mod:`repro.cache.kv`: with *causal* masks,
incremental decoding through cached prefix K/V must reproduce full
re-encoding at ANY depth of the stack; with arbitrary additive masks it is
exact for single-layer stacks.  Parities here drive the compiled program
(:meth:`repro.nn.inference.Program.encode`, i.e. ``block(...,
prefix_kv=<arena views>)`` per layer) against the graph forward of the same
decoder stack, with tight tolerances (same entries, possibly different BLAS
summation order).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.kv import (
    DecodingState,
    LayerKVCache,
    allocation_stats,
    reset_allocation_stats,
)
from repro.core.irn import _IRNModule
from repro.nn import inference
from repro.nn.tensor import Tensor
from repro.nn.transformer import causal_mask
from repro.utils.exceptions import ConfigurationError

RTOL, ATOL = 1e-9, 1e-10


class TestLayerKVCache:
    def test_extend_accumulates_and_returns_full(self, rng):
        cache = LayerKVCache()
        first = rng.normal(size=(2, 2, 3, 4))
        full_k, _ = cache.extend(first, first.copy())
        assert full_k.shape == (2, 2, 3, 4)
        assert cache.length == 3
        second = rng.normal(size=(2, 2, 1, 4))
        full_k, full_v = cache.extend(second, second.copy())
        assert full_k.shape == (2, 2, 4, 4)
        np.testing.assert_array_equal(full_k[:, :, :3], first)
        assert cache.length == 4

    def test_persist_keeps_transient_out_of_cache(self, rng):
        cache = LayerKVCache()
        new = rng.normal(size=(1, 1, 2, 4))
        full_k, _ = cache.extend(new, new.copy(), persist=1)
        assert full_k.shape[2] == 2  # both participate in this forward
        assert cache.length == 1  # only the first persists
        np.testing.assert_array_equal(cache.keys, new[:, :, :1])

    def test_reorder_gathers_rows(self, rng):
        cache = LayerKVCache()
        keys = rng.normal(size=(3, 1, 2, 4))
        cache.extend(keys, keys.copy())
        cache.reorder([2, 0, 0])
        assert cache.batch_size == 3
        np.testing.assert_array_equal(cache.keys[0], keys[2])
        np.testing.assert_array_equal(cache.keys[1], keys[0])
        np.testing.assert_array_equal(cache.keys[2], keys[0])

    def test_batch_mismatch_raises(self, rng):
        cache = LayerKVCache()
        keys = rng.normal(size=(2, 1, 2, 4))
        cache.extend(keys, keys.copy())
        with pytest.raises(ConfigurationError):
            cache.extend(keys[:1], keys[:1].copy())

    def test_invalid_persist_raises(self, rng):
        cache = LayerKVCache()
        keys = rng.normal(size=(1, 1, 2, 4))
        with pytest.raises(ConfigurationError):
            cache.extend(keys, keys.copy(), persist=3)


class TestArenaStorage:
    def test_extend_returns_views_into_the_arena(self, rng):
        cache = LayerKVCache()
        keys = rng.normal(size=(2, 1, 3, 4))
        full_k, full_v = cache.extend(keys, keys.copy())
        assert full_k.base is not None and np.shares_memory(full_k, cache.keys)
        assert full_v.base is not None and np.shares_memory(full_v, cache.values)

    def test_geometric_growth_doubles_capacity(self, rng):
        cache = LayerKVCache()
        step = rng.normal(size=(1, 1, 1, 4))
        cache.extend(step, step.copy())
        first_capacity = cache.capacity
        assert first_capacity >= cache.length
        for _ in range(first_capacity + 1):
            cache.extend(step, step.copy())
        assert cache.capacity == first_capacity * 2

    def test_appended_slice_is_the_only_copy_at_steady_state(self, rng):
        cache = LayerKVCache()
        prefix = rng.normal(size=(2, 2, 4, 4))
        cache.extend(prefix, prefix.copy())
        step = rng.normal(size=(2, 2, 1, 4))
        reset_allocation_stats()
        cache.extend(step, step.copy())  # capacity 8 holds length 5: no growth
        stats = allocation_stats()
        assert stats["arena_allocated_bytes"] == 0
        assert stats["copied_bytes"] == 2 * step.nbytes
        assert stats["concat_equivalent_bytes"] > stats["copied_bytes"]
        reset_allocation_stats()

    def test_transient_slots_are_overwritten_not_retained(self, rng):
        cache = LayerKVCache()
        first = rng.normal(size=(1, 1, 3, 2))
        cache.extend(first, first.copy(), persist=2)  # third column transient
        second = rng.normal(size=(1, 1, 2, 2))
        full_k, _ = cache.extend(second, second.copy(), persist=1)
        np.testing.assert_array_equal(full_k[:, :, :2], first[:, :, :2])
        np.testing.assert_array_equal(full_k[:, :, 2:], second)
        assert cache.length == 3

    def test_storage_dtype_is_that_of_the_first_keys(self, rng):
        keys = rng.normal(size=(1, 1, 2, 4))
        cache = LayerKVCache()
        assert cache.dtype is None
        full_k, _ = cache.extend(keys.astype(np.float32), keys.astype(np.float32))
        assert cache.dtype == np.float32 and full_k.dtype == np.float32
        cache.extend(keys, keys.copy())  # later extends are cast to the arena's dtype
        assert cache.keys.dtype == np.float32 and cache.length == 4
        plain = LayerKVCache()
        plain.extend(keys, keys.copy())
        assert plain.dtype == np.float64

    def test_reorder_reuses_spare_buffers_at_steady_batch(self, rng):
        cache = LayerKVCache()
        keys = rng.normal(size=(3, 1, 4, 4))
        cache.extend(keys, keys.copy())
        cache.reorder([2, 1, 0])  # allocates the spare pair
        reset_allocation_stats()
        cache.reorder([0, 2, 1])  # swaps buffers, no allocation
        assert allocation_stats()["arena_allocated_bytes"] == 0
        # Composition of the two gathers: [2,1,0] then [0,2,1] -> [k2,k0,k1].
        np.testing.assert_array_equal(cache.keys[1], keys[0])
        reset_allocation_stats()

    def test_reorder_changes_batch_size(self, rng):
        cache = LayerKVCache()
        keys = rng.normal(size=(4, 1, 3, 4))
        cache.extend(keys, keys.copy())
        cache.reorder([3, 0])
        assert cache.batch_size == 2
        np.testing.assert_array_equal(cache.keys[0], keys[3])
        step = rng.normal(size=(2, 1, 1, 4))
        full_k, _ = cache.extend(step, step.copy())
        assert full_k.shape == (2, 1, 4, 4)


class TestDecodingState:
    def test_layers_stay_in_lockstep(self, rng):
        state = DecodingState(3)
        assert len(state) == 3 and state.length == 0
        for cache in state:
            keys = rng.normal(size=(2, 1, 4, 4))
            cache.extend(keys, keys.copy())
        assert state.length == 4
        state.reorder([1, 0])
        assert state.batch_size == 2

    def test_requires_positive_layers(self):
        with pytest.raises(ConfigurationError):
            DecodingState(0)


def decoder_module(num_layers: int, seed: int) -> _IRNModule:
    """An untrained IRN module: its decoder stack is what these tests run."""
    module = _IRNModule(
        vocab_size=12,
        num_users=3,
        max_length=16,
        embedding_dim=8,
        user_dim=4,
        num_heads=2,
        num_layers=num_layers,
        dropout=0.0,
        rng=np.random.default_rng(seed),
    )
    module.eval()
    return module


def graph_forward(module: _IRNModule, x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The oracle: the decoder's graph-building forward (grad enabled)."""
    out = module.decoder(Tensor(x), mask=mask)
    assert out.requires_grad
    return out.data


@pytest.fixture(scope="module")
def module():
    return decoder_module(num_layers=3, seed=0)


@pytest.fixture(scope="module")
def program(module):
    return inference.compile(module, np.float64)


class TestCausalIncrementalParity:
    def test_multi_layer_causal_decoding_matches_full(self, module, program, rng):
        """Token-by-token decoding == full forward, at three stacked layers."""
        batch, length, d_model = 3, 7, 8
        x = rng.normal(size=(batch, length, d_model))
        full = graph_forward(module, x, causal_mask(length))
        np.testing.assert_allclose(
            program.encode(x, causal_mask(length)), full, rtol=RTOL, atol=ATOL
        )
        state = DecodingState(3)
        incremental = []
        for t in range(length):
            step_mask = np.zeros((1, t + 1))
            out = program.encode(x[:, t : t + 1, :], step_mask, caches=state.layers)
            incremental.append(out[:, 0, :])
        assert state.length == length
        incremental = np.stack(incremental, axis=1)
        np.testing.assert_allclose(incremental, full, rtol=RTOL, atol=ATOL)

    def test_block_incremental_after_prefix(self, module, program, rng):
        """Encode a prefix once, then append several tokens in one step."""
        batch, prefix, suffix, d_model = 2, 4, 3, 8
        x = rng.normal(size=(batch, prefix + suffix, d_model))
        full = graph_forward(module, x, causal_mask(prefix + suffix))
        state = DecodingState(3)
        program.encode(x[:, :prefix, :], causal_mask(prefix), caches=state.layers)
        step_mask = causal_mask(prefix + suffix)[prefix:, :]
        out = program.encode(x[:, prefix:, :], step_mask, caches=state.layers)
        np.testing.assert_allclose(out, full[:, prefix:, :], rtol=RTOL, atol=ATOL)

    def test_reordered_rows_decode_like_reordered_batch(self, module, program, rng):
        """Beam-style row gather: duplicated/pruned rows keep exact parity."""
        x = rng.normal(size=(3, 4, 8))
        gather = np.array([2, 0, 2])
        new = rng.normal(size=(3, 1, 8))
        reordered = np.concatenate([x[gather], new], axis=1)
        full = graph_forward(module, reordered, causal_mask(5))
        state = DecodingState(3)
        program.encode(x, causal_mask(4), caches=state.layers)
        state.reorder(gather)
        out = program.encode(new, np.zeros((1, 5)), caches=state.layers)
        np.testing.assert_allclose(out[:, 0, :], full[:, -1, :], rtol=RTOL, atol=ATOL)

    def test_arena_views_attend_in_place(self, program, rng):
        """``block`` reads the arena views as ``prefix_kv`` and leaves them untouched."""
        layer = program.layers[0]
        x = rng.normal(size=(2, 5, 8))
        _, keys, values = inference.block(layer, x[:, :4], causal_mask(4))
        cache = LayerKVCache()
        cache.extend(keys, values)
        before = cache.keys.copy()
        stepped, _, _ = inference.block(
            layer, x[:, 4:], np.zeros((1, 5)), prefix_kv=(cache.keys, cache.values)
        )
        full, _, _ = inference.block(layer, x, causal_mask(5))
        np.testing.assert_allclose(stepped[:, 0], full[:, -1], rtol=RTOL, atol=ATOL)
        np.testing.assert_array_equal(cache.keys, before)
        assert cache.length == 4


class TestSingleLayerObjectiveParity:
    def test_objective_style_mask_exact_for_one_layer(self, rng):
        """PIM-like masks (prefix attends a moving final column) are exact
        incrementally when the stack has a single layer: its K/V are
        projections of the fixed input embeddings."""
        module = decoder_module(num_layers=1, seed=1)
        program = inference.compile(module, np.float64)
        batch, prefix = 2, 5
        x = rng.normal(size=(batch, prefix + 2, 8))  # prefix + new token + objective
        length = prefix + 2
        mask = causal_mask(length)
        mask[: length - 1, length - 1] = 0.7  # reveal the objective column
        full = graph_forward(module, x, mask)
        state = DecodingState(1)
        program.encode(x[:, :prefix, :], causal_mask(prefix), caches=state.layers, persist=prefix)
        out = program.encode(x[:, prefix:, :], mask[prefix:, :], caches=state.layers, persist=1)
        np.testing.assert_allclose(out, full[:, prefix:, :], rtol=RTOL, atol=ATOL)

    def test_transient_column_not_cached(self, rng):
        program = inference.compile(decoder_module(num_layers=1, seed=1), np.float64)
        state = DecodingState(1)
        x = rng.normal(size=(1, 3, 8))
        program.encode(x, causal_mask(3), caches=state.layers, persist=2)
        assert state.length == 2


class TestGradGuard:
    def test_graph_forward_takes_no_decoding_state(self, module, rng):
        """K/V caches belong to the compiled program; the graph forward — the
        training path — has no parameter to hand one to."""
        x = Tensor(rng.normal(size=(1, 2, 8)))
        with pytest.raises(TypeError):
            module.decoder(x, mask=causal_mask(2), state=DecodingState(3))
        with pytest.raises(TypeError):
            module.decoder.layers[0](x, mask=causal_mask(2), kv_cache=LayerKVCache())

    def test_layer_count_mismatch_raises(self, program, rng):
        state = DecodingState(2)  # the program has 3 layers
        with pytest.raises(ConfigurationError):
            program.encode(rng.normal(size=(1, 2, 8)), causal_mask(2), caches=state.layers)
