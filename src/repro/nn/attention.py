"""Multi-head scaled dot-product attention with additive masks.

The mask argument is an *additive* float array broadcastable to the attention
logits of shape ``(batch, heads, query_len, key_len)``.  Disallowed positions
use a large negative value; the Personalized Impressionability Mask of the
paper additionally adds finite positive weights for the objective-item column
(see :mod:`repro.core.pim`).

One implementation: the graph forward is the training path, the parity
oracle and, with gradients off, how the baselines (SASRec, BERT4Rec)
infer.  IRN's own inference does not come through here at all — it runs
the compiled program of :mod:`repro.nn.inference`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.layers import Dropout, Linear, Module
from repro.nn.tensor import Tensor
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import as_rng, spawn_rng

__all__ = ["MultiHeadAttention", "scaled_dot_product_attention", "NEG_INF"]

#: Additive logit used to mask out a position entirely.  Large enough that the
#: masked probability underflows to ~0, small enough to avoid inf-inf NaNs.
NEG_INF = -1e9


def scaled_dot_product_attention(
    query: Tensor,
    key: Tensor,
    value: Tensor,
    mask: "np.ndarray | Tensor | None" = None,
) -> tuple[Tensor, Tensor]:
    """Compute ``softmax(QK^T / sqrt(d_k) + mask) V``.

    ``query``/``key``/``value`` have shape ``(..., length, d_k)``; ``mask`` is
    an additive array broadcastable to ``(..., query_len, key_len)``.  When
    ``mask`` is a :class:`Tensor` (e.g. the Personalized Impressionability
    Mask, which depends on the learned impressionability factor), gradients
    flow through it.

    Returns ``(output, attention_weights)``.
    """
    d_k = query.shape[-1]
    scores = query.matmul(key.swapaxes(-1, -2)) * (1.0 / np.sqrt(d_k))
    if mask is not None:
        if not isinstance(mask, Tensor):
            mask = Tensor(np.asarray(mask, dtype=np.float64))
        scores = scores + mask
    weights = F.softmax(scores, axis=-1)
    return weights.matmul(value), weights


class MultiHeadAttention(Module):
    """Multi-head self/cross attention (Eq. 4 of the paper).

    Parameters
    ----------
    d_model:
        Model (embedding) dimension.
    num_heads:
        Number of attention heads; must divide ``d_model``.
    dropout:
        Dropout probability applied to the attention output.
    """

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dropout: float = 0.0,
        rng: "int | np.random.Generator | None" = None,
    ) -> None:
        super().__init__()
        if d_model % num_heads != 0:
            raise ConfigurationError(
                f"d_model ({d_model}) must be divisible by num_heads ({num_heads})"
            )
        rng = as_rng(rng)
        rngs = spawn_rng(rng, 5)
        self.d_model = d_model
        self.num_heads = num_heads
        self.d_head = d_model // num_heads
        self.query_proj = Linear(d_model, d_model, rng=rngs[0])
        self.key_proj = Linear(d_model, d_model, rng=rngs[1])
        self.value_proj = Linear(d_model, d_model, rng=rngs[2])
        self.output_proj = Linear(d_model, d_model, rng=rngs[3])
        self.dropout = Dropout(dropout, rng=rngs[4])
        #: attention weights of the most recent forward pass (for analysis),
        #: ``(batch, heads, query_len, key_len)``
        self.last_attention: np.ndarray | None = None

    def _split_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.reshape(batch, length, self.num_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: Tensor, batch: int, length: int) -> Tensor:
        return x.transpose(0, 2, 1, 3).reshape(batch, length, self.d_model)

    def forward(
        self,
        query: Tensor,
        key: Tensor | None = None,
        value: Tensor | None = None,
        mask: "np.ndarray | Tensor | None" = None,
    ) -> Tensor:
        """Apply attention.  With only ``query`` given this is self-attention.

        ``mask`` is an additive array (or differentiable :class:`Tensor`)
        broadcastable to ``(batch, num_heads, query_len, key_len)``; pass
        e.g. a ``(batch, 1, m, m)`` PIM or a ``(m, m)`` causal mask.
        """
        key = query if key is None else key
        value = key if value is None else value
        batch, q_len, _ = query.shape
        k_len = key.shape[1]

        q = self._split_heads(self.query_proj(query), batch, q_len)
        k = self._split_heads(self.key_proj(key), batch, k_len)
        v = self._split_heads(self.value_proj(value), batch, k_len)

        if mask is not None:
            if isinstance(mask, Tensor):
                if mask.ndim == 2:
                    mask = mask.reshape(1, 1, *mask.shape)
                elif mask.ndim == 3:
                    mask = mask.reshape(mask.shape[0], 1, mask.shape[1], mask.shape[2])
                elif mask.ndim != 4:
                    raise ConfigurationError(
                        f"attention mask must have 2-4 dimensions, got {mask.ndim}"
                    )
            else:
                mask = np.asarray(mask, dtype=np.float64)
                if mask.ndim == 2:
                    mask = mask[None, None, :, :]
                elif mask.ndim == 3:
                    mask = mask[:, None, :, :]
                elif mask.ndim != 4:
                    raise ConfigurationError(
                        f"attention mask must have 2-4 dimensions, got {mask.ndim}"
                    )

        context, weights = scaled_dot_product_attention(q, k, v, mask=mask)
        self.last_attention = weights.data
        merged = self._merge_heads(context, batch, q_len)
        return self.dropout(self.output_proj(merged))
