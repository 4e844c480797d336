"""Transformer building blocks.

The paper's IRN is a stack of Transformer *decoder* layers operating on a
single sequence (self-attention only, causal + objective-aware masking), which
structurally is an encoder layer with a custom additive mask.  The same block
is reused by SASRec (causal mask) and BERT4Rec (no mask).

These modules are the training path and the parity oracle, and with
gradients off the way the baselines infer: the same forward, recording no
graph.  IRN's inference runs the same arithmetic from a compiled program
instead (:mod:`repro.nn.inference`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.attention import NEG_INF, MultiHeadAttention
from repro.nn.layers import Dropout, LayerNorm, Linear, Module, ModuleList
from repro.nn.tensor import Tensor
from repro.nn import functional as F
from repro.utils.rng import as_rng, spawn_rng

__all__ = [
    "PositionwiseFeedForward",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "causal_mask",
    "sinusoidal_positional_encoding",
]


#: Read-only master copies of :func:`causal_mask` per length.  Decode loops
#: request the same few lengths thousands of times; memoizing skips the
#: triangular rebuild (and, with ``copy=False``, the allocation too).
_CAUSAL_MASK_CACHE: dict[int, np.ndarray] = {}


def causal_mask(length: int, copy: bool = True) -> np.ndarray:
    """Standard lower-triangular additive mask of shape ``(length, length)``.

    Position ``j`` may attend to positions ``k <= j``; future positions get
    :data:`~repro.nn.attention.NEG_INF`.  With ``copy=False`` the shared
    read-only master is returned (no allocation) — callers that add
    objective columns or otherwise edit the mask must keep the default.
    """
    master = _CAUSAL_MASK_CACHE.get(length)
    if master is None:
        master = np.zeros((length, length), dtype=np.float64)
        future = np.triu(np.ones((length, length), dtype=bool), k=1)
        master[future] = NEG_INF
        master.setflags(write=False)
        _CAUSAL_MASK_CACHE[length] = master
    return master.copy() if copy else master


def sinusoidal_positional_encoding(length: int, d_model: int) -> np.ndarray:
    """The fixed sin/cos positional encoding of Vaswani et al. (2017)."""
    positions = np.arange(length)[:, None].astype(np.float64)
    dims = np.arange(d_model)[None, :].astype(np.float64)
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / d_model)
    angles = positions * angle_rates
    encoding = np.zeros((length, d_model), dtype=np.float64)
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


class PositionwiseFeedForward(Module):
    """Two-layer feed-forward network applied at every position."""

    def __init__(
        self,
        d_model: int,
        d_hidden: int,
        dropout: float = 0.0,
        activation: str = "gelu",
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        rng = as_rng(rng)
        rngs = spawn_rng(rng, 3)
        self.fc1 = Linear(d_model, d_hidden, rng=rngs[0])
        self.fc2 = Linear(d_hidden, d_model, rng=rngs[1])
        self.dropout = Dropout(dropout, rng=rngs[2])
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.fc1(x)
        hidden = F.gelu(hidden) if self.activation == "gelu" else hidden.relu()
        return self.dropout(self.fc2(hidden))


class TransformerEncoderLayer(Module):
    """Pre-norm Transformer block: self-attention + position-wise FFN.

    Pre-norm (LayerNorm before each sub-layer) trains stably without warmup,
    which matters for the small NumPy training budgets used here.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        d_hidden: int | None = None,
        dropout: float = 0.0,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        rng = as_rng(rng)
        rngs = spawn_rng(rng, 3)
        d_hidden = d_hidden if d_hidden is not None else 4 * d_model
        self.attention = MultiHeadAttention(d_model, num_heads, dropout=dropout, rng=rngs[0])
        self.feed_forward = PositionwiseFeedForward(d_model, d_hidden, dropout=dropout, rng=rngs[1])
        self.norm1 = LayerNorm(d_model)
        self.norm2 = LayerNorm(d_model)
        self.dropout = Dropout(dropout, rng=rngs[2])

    def forward(self, x: Tensor, mask: "np.ndarray | Tensor | None" = None) -> Tensor:
        x = x + self.dropout(self.attention(self.norm1(x), mask=mask))
        x = x + self.feed_forward(self.norm2(x))
        return x


class TransformerEncoder(Module):
    """A stack of :class:`TransformerEncoderLayer` with a final LayerNorm."""

    def __init__(
        self,
        num_layers: int,
        d_model: int,
        num_heads: int,
        d_hidden: int | None = None,
        dropout: float = 0.0,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        rng = as_rng(rng)
        rngs = spawn_rng(rng, num_layers)
        self.layers = ModuleList(
            [
                TransformerEncoderLayer(
                    d_model, num_heads, d_hidden=d_hidden, dropout=dropout, rng=rngs[i]
                )
                for i in range(num_layers)
            ]
        )
        self.final_norm = LayerNorm(d_model)

    def forward(self, x: Tensor, mask: "np.ndarray | Tensor | None" = None) -> Tensor:
        for layer in self.layers:
            x = layer(x, mask=mask)
        return self.final_norm(x)
