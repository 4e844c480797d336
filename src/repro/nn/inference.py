"""A fitted IRN compiled into a flat no-grad program over raw ndarrays.

The autograd modules (:mod:`repro.nn.layers`, :mod:`repro.nn.attention`,
:mod:`repro.nn.transformer`) box every intermediate in a
:class:`~repro.nn.tensor.Tensor` and dispatch through ``Module.__call__``:
the right shape for training, and the parity oracle, but at IRN's inference
sizes (``d = 32``, a few dozen rows) the boxes cost more than the arithmetic.
:func:`compile` extracts a module's weights **once per weight version** into
contiguous arrays of the program's dtype — Q/K/V fused into one ``(d, 3d)``
GEMM operand, every weight pre-transposed, the ``r_u`` of every user
pre-computed — and every IRN scorer (:mod:`repro.core.irn`) is then composed
from one primitive, :func:`block`, plus the module-level :func:`layer_norm`,
:func:`gelu_` and :func:`attend` (with its in-place :func:`softmax_`) it is
made of.  This is the one no-grad implementation of the Transformer in
:mod:`repro.nn`: the modules have no inference twin, and the baselines infer
through their graph forward with grad off.

A :class:`Program` is read-only after :func:`compile` and holds no scratch:
threads share it freely, every call allocates what it returns.  It computes
what the graph forward computes in eval mode (no dropout), with GEMMs on the
flattened ``(batch · length, d)`` token view, in the dtype it was compiled
in.  IRN plans in float32, the default: the weights and tables are cast
once here, the caller builds its additive masks in :attr:`Program.dtype`,
and nothing is cast per layer.  A float64 program agrees with the float64
graph forward to summation-order noise (``<= 1e-10``, in practice
``~1e-15``), not bit for bit; a float32 program's logits stay within
``5e-4`` of a float64 program's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.exceptions import ConfigurationError

__all__ = [
    "Layer",
    "Program",
    "compile",
    "compile_layer",
    "block",
    "attention_block",
    "split_heads",
    "keys_values",
    "attend",
    "softmax_",
    "layer_norm",
    "gelu_",
]

_GELU_SCALE = float(np.sqrt(2.0 / np.pi))  # a Python float: keeps float32 programs in float32


@dataclass(frozen=True, slots=True)
class Layer:
    """One pre-norm Transformer block; every weight is ``(in, out)``."""

    heads: int
    norm1: "tuple[np.ndarray, np.ndarray, float]"  # weight, bias, eps
    norm2: "tuple[np.ndarray, np.ndarray, float]"
    wqkv: np.ndarray  # (d, 3d): queries | keys | values
    bqkv: np.ndarray
    wq: np.ndarray  # (d, d), for calls that name their queries
    bq: np.ndarray
    wkv: np.ndarray  # (d, 2d)
    bkv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    w1: np.ndarray  # (d, d_hidden)
    b1: np.ndarray
    w2: np.ndarray  # (d_hidden, d)
    b2: np.ndarray


@dataclass(frozen=True, slots=True)
class Program:
    """The arrays one ``_IRNModule`` weight version infers with."""

    dtype: np.dtype
    layers: "tuple[Layer, ...]"
    final_norm: "tuple[np.ndarray, np.ndarray, float]"
    item_table: np.ndarray  # (V, d): embedding lookup and gathered projection
    item_table_t: np.ndarray  # (d, V): the tied full-vocabulary projection
    position_table: np.ndarray  # (max_length, d)
    #: ``r_u = W_U e(u) + b`` of every user, float64 whatever the dtype (it
    #: only ever enters the additive masks, built in :attr:`dtype`)
    impressionability: np.ndarray
    #: what this was compiled from: the module, its parameters and the
    #: arrays they held (see :meth:`current`)
    module: object
    parameters: tuple
    sources: tuple

    def current(self, module) -> bool:
        """Whether ``module`` still holds the weights this program was compiled from.

        ``fit`` / ``warm_start`` build a new module; ``load_state_dict`` and
        ``Embedding.load_pretrained`` *rebind* ``Parameter.data`` — so the
        identity of the module and of every parameter array tells.
        """
        if module is not self.module:
            return False
        for parameter, source in zip(self.parameters, self.sources):
            if parameter.data is not source:
                return False
        return True

    # ------------------------------------------------------------------ #
    def embed(self, items: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Item + position embeddings of ``(batch, length)`` index arrays."""
        hidden = self.item_table[items]
        hidden += self.position_table[positions]
        return hidden

    def encode(
        self,
        x: np.ndarray,
        mask: np.ndarray,
        queries: "np.ndarray | slice | None" = None,
        caches: "list | None" = None,
        persist: "int | None" = None,
    ) -> np.ndarray:
        """Run the stack on ``(batch, length, d)`` inputs and apply the final norm.

        Every layer but the last runs in full — their outputs are the last
        layer's keys/values — and the last answers ``queries`` only, so the
        result is ``(batch, len(queries), d)``.

        With ``caches`` (one :class:`~repro.cache.kv.LayerKVCache` per
        layer) ``x`` holds only newly appended positions: each layer attends
        them over ``[cached prefix ; own]`` keys, so ``mask`` spans
        ``prefix + length`` key columns, and the first ``persist`` own
        columns (default: all) join the cache.  Whether reuse is exact is
        the caller's contract (see :mod:`repro.cache.kv`).
        """
        if caches is not None and len(caches) != len(self.layers):
            raise ConfigurationError(
                f"decoding state has {len(caches)} layer caches for {len(self.layers)} layers"
            )
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            cache = None if caches is None else caches[index]
            prefix = None if cache is None or not cache.length else (cache.keys, cache.values)
            x, keys, values = block(layer, x, mask, prefix, queries if index == last else None)
            if cache is not None:
                cache.extend(keys[:, :, :persist], values[:, :, :persist])
        return layer_norm(x, *self.final_norm)

    def project(self, hidden: np.ndarray) -> np.ndarray:
        """Tied output projection of ``(batch, queries, d)`` states onto
        every item: ``(batch, queries, V)`` logits."""
        return (hidden.reshape(-1, hidden.shape[-1]) @ self.item_table_t).reshape(
            *hidden.shape[:-1], -1
        )

    @staticmethod
    def project_rows(hidden: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Project ``(batch, queries, d)`` states onto each row's own gathered
        ``(batch, K, d)`` item-table rows (``item_table[items]`` of a per-row
        ``(batch, K)`` shortlist): ``(batch, queries, K)`` logits, at a cost
        proportional to ``K`` instead of the vocabulary."""
        return hidden @ rows.swapaxes(-1, -2)


def layer_norm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float) -> np.ndarray:
    """Layer normalisation over the last axis (a new array; ``x`` is untouched)."""
    width = x.shape[-1]
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / width
    variance = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    variance /= width
    variance += eps
    centered /= np.sqrt(variance, out=variance)
    centered *= weight
    centered += bias
    return centered


def gelu_(x: np.ndarray) -> np.ndarray:
    """GELU (the ``tanh`` approximation BERT uses), **in place** on ``x``."""
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_SCALE
    np.tanh(inner, out=inner)
    inner += 1.0
    inner *= 0.5
    x *= inner
    return x


def softmax_(scores: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, **in place**.

    The max-subtraction, exponentiation and normalisation all reuse
    ``scores``'s buffer; only the per-row max/sum reductions allocate.
    Returns ``scores`` for chaining.
    """
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def attend(
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    mask: "np.ndarray | None" = None,
    prefix_kv: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """``softmax(Q [Kp ; K]^T / sqrt(d_head) + mask) [Vp ; V]`` per head.

    ``query`` is ``(batch, heads, q, d_head)``, ``keys`` / ``values``
    ``(batch, heads, k, d_head)`` and ``prefix_kv`` an optional pair of
    ``(batch, heads, p, d_head)`` arrays (views into a K/V arena attend
    without being copied next to the new keys: the two score blocks land in
    one buffer).  ``mask`` is additive and broadcastable to ``(batch, heads,
    q, p + k)``.  Returns the ``(batch, heads, q, d_head)`` context.
    """
    prefix = 0 if prefix_kv is None else prefix_kv[0].shape[2]
    scores = np.empty(query.shape[:3] + (prefix + keys.shape[2],), dtype=query.dtype)
    if prefix:
        np.matmul(query, prefix_kv[0].swapaxes(-1, -2), out=scores[..., :prefix])
    np.matmul(query, keys.swapaxes(-1, -2), out=scores[..., prefix:])
    scores *= query.dtype.type(1.0 / np.sqrt(query.shape[-1]))
    if mask is not None:
        scores += mask
    softmax_(scores)
    context = np.matmul(scores[..., prefix:], values)
    if prefix:
        context += np.matmul(scores[..., :prefix], prefix_kv[1])
    return context


def split_heads(fused: np.ndarray, batch: int, heads: int, width: int) -> np.ndarray:
    """``(n, batch, heads, length, d_head)`` views of the ``n`` projections of
    width ``width`` fused along the last axis of ``fused`` (``(…, n · width)``)."""
    fused = fused.reshape(batch, -1, fused.shape[-1] // width, heads, width // heads)
    return fused.transpose(2, 0, 3, 1, 4)


def _project(
    tokens: np.ndarray, weight: np.ndarray, bias: np.ndarray, batch: int, heads: int
) -> np.ndarray:
    """``tokens @ weight + bias`` split per head (see :func:`split_heads`)."""
    fused = tokens @ weight
    fused += bias
    return split_heads(fused, batch, heads, weight.shape[0])


def keys_values(layer: Layer, x: np.ndarray) -> np.ndarray:
    """The keys/values :func:`block` would project for ``x``, and nothing else
    (for columns no query reads): one ``(batch, length, 2d)`` array, keys |
    values fused as ``block`` projects them (:func:`split_heads` splits it).
    Rows can be gathered from it before it is split."""
    batch, length, width = x.shape
    fused = layer_norm(x.reshape(batch * length, width), *layer.norm1) @ layer.wkv
    fused += layer.bkv
    return fused.reshape(batch, length, -1)


def block(
    layer: Layer,
    x: np.ndarray,
    mask: "np.ndarray | None" = None,
    prefix_kv: "tuple[np.ndarray, np.ndarray] | None" = None,
    queries: "np.ndarray | slice | None" = None,
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """One pre-norm Transformer block over ``(batch, length, d)`` inputs.

    Every column of ``x`` is normalised and projected to keys/values; with
    ``queries`` (an index array or slice over the length axis) the query
    projection, attention, output projection, residuals and feed-forward run
    on those columns alone, under the matching rows of ``mask``.  Queries
    attend over ``[prefix_kv ; own]`` keys (see :func:`attend`); ``mask`` is
    an additive ``(length, keys)`` or ``(batch, length, keys)`` array of the
    layer's dtype.  All GEMMs run on the flattened ``(batch · length, d)``
    token view.

    Returns ``(y, keys, values)``: ``y`` is ``(batch, length or
    len(queries), d)`` and ``keys`` / ``values`` are this call's own
    ``(batch, heads, length, d_head)`` projections, as views.
    """
    batch, length, width = x.shape
    tokens = x.reshape(batch * length, width)
    normed = layer_norm(tokens, *layer.norm1)
    if queries is None:
        query, keys, values = _project(normed, layer.wqkv, layer.bqkv, batch, layer.heads)
    else:
        keys, values = _project(normed, layer.wkv, layer.bkv, batch, layer.heads)
        picked = normed.reshape(batch, length, width)[:, queries]
        (query,) = _project(picked.reshape(-1, width), layer.wq, layer.bq, batch, layer.heads)
        tokens = x[:, queries].reshape(-1, width)
        if mask is not None:
            mask = mask[..., queries, :]
    return attention_block(layer, tokens, query, keys, values, mask, prefix_kv), keys, values


def attention_block(
    layer: Layer,
    tokens: np.ndarray,
    query: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    mask: "np.ndarray | None" = None,
    prefix_kv: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> np.ndarray:
    """The rest of :func:`block` once its queries, keys and values are projected.

    ``tokens`` are the query columns' ``(batch · q, d)`` inputs (the
    residual), ``query`` / ``keys`` / ``values`` per-head ``(batch, heads,
    ·, d_head)`` arrays and ``mask`` the query rows' ``(…, q, keys)``
    additive mask.  Attention, output projection, residuals and
    feed-forward; returns ``(batch, q, d)``.  A caller that keeps some
    columns' projections across calls runs only this part on them.
    """
    batch, width = query.shape[0], tokens.shape[-1]
    if mask is not None:
        mask = mask[..., None, :, :]  # one mask for every head
    context = attend(query, keys, values, mask, prefix_kv)
    attended = context.transpose(0, 2, 1, 3).reshape(-1, width) @ layer.wo
    attended += layer.bo
    attended += tokens
    hidden = layer_norm(attended, *layer.norm2) @ layer.w1
    hidden += layer.b1
    out = gelu_(hidden) @ layer.w2
    out += layer.b2
    out += attended
    return out.reshape(batch, -1, width)


# ---------------------------------------------------------------------- #
# Compilation
# ---------------------------------------------------------------------- #
def _norm(norm, dtype) -> "tuple[np.ndarray, np.ndarray, float]":
    return (
        np.ascontiguousarray(norm.weight.data, dtype=dtype),
        np.ascontiguousarray(norm.bias.data, dtype=dtype),
        float(norm.eps),
    )


def compile_layer(layer, dtype: "np.dtype | str" = np.float32) -> Layer:
    """Extract one :class:`~repro.nn.transformer.TransformerEncoderLayer`."""
    attention, feed_forward = layer.attention, layer.feed_forward
    if feed_forward.activation != "gelu":
        raise ConfigurationError(f"cannot compile a '{feed_forward.activation}' feed-forward block")

    def weights(*linears) -> np.ndarray:
        return np.ascontiguousarray(
            np.concatenate([linear.weight.data.T for linear in linears], axis=1), dtype=dtype
        )

    def biases(*linears) -> np.ndarray:
        return np.concatenate([linear.bias.data for linear in linears]).astype(dtype)

    q, k, v = attention.query_proj, attention.key_proj, attention.value_proj
    return Layer(
        heads=attention.num_heads,
        norm1=_norm(layer.norm1, dtype),
        norm2=_norm(layer.norm2, dtype),
        wqkv=weights(q, k, v),
        bqkv=biases(q, k, v),
        wq=weights(q),
        bq=biases(q),
        wkv=weights(k, v),
        bkv=biases(k, v),
        wo=weights(attention.output_proj),
        bo=biases(attention.output_proj),
        w1=weights(feed_forward.fc1),
        b1=biases(feed_forward.fc1),
        w2=weights(feed_forward.fc2),
        b2=biases(feed_forward.fc2),
    )


def compile(module, dtype: "np.dtype | str" = np.float32) -> Program:
    """Compile an ``_IRNModule``'s current weights into a :class:`Program`.

    IRN plans on the float32 default; a float64 program is the exactness
    oracle's (the tests hold it to the graph forward at ``<= 1e-10``).
    """
    dtype = np.dtype(dtype)
    parameters = tuple(module.parameters())
    sources = tuple(parameter.data for parameter in parameters)
    item_table = np.ascontiguousarray(module.item_embedding.weight.data, dtype=dtype)
    factor = module.impressionability
    impressionability = module.user_embedding.weight.data @ factor.weight.data.T
    impressionability += factor.bias.data
    return Program(
        dtype=dtype,
        layers=tuple(compile_layer(layer, dtype) for layer in module.decoder.layers),
        final_norm=_norm(module.decoder.final_norm, dtype),
        item_table=item_table,
        item_table_t=np.ascontiguousarray(item_table.T),
        position_table=np.ascontiguousarray(module.position_embedding.weight.data, dtype=dtype),
        impressionability=impressionability.reshape(-1),
        module=module,
        parameters=parameters,
        sources=sources,
    )
