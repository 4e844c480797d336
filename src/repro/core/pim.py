"""Personalized Impressionability Mask (PIM), §III-D3/4 of the paper.

The PIM is an *additive* attention mask over a pre-padded input sequence
whose final position holds the objective item.  It combines three effects:

1. **Causality** — position ``j`` may attend only to positions ``k <= j``
   (standard Transformer-decoder mask, Figure 5(a)).
2. **Perceiving the objective** — every position may additionally attend to
   the objective item at the final position (Figure 5(b)).  The objective
   column receives an additive weight ``w_t`` while visible history
   positions receive ``w_h`` (the paper sets ``w_t > w_h``).
3. **Personalization** — the objective weight is scaled by the user's
   learned impressionability factor ``r_u`` (Figure 5(c)), so impressionable
   users get a stronger pull toward the objective.

Three mask types are distinguished, matching the Table V ablation:

* ``MaskType.CAUSAL`` (Type 1) — no objective attention (``w_h = w_t = 0``).
* ``MaskType.OBJECTIVE`` (Type 2) — uniform objective weight ``w_t``.
* ``MaskType.PERSONALIZED`` (Type 3) — objective weight ``r_u * w_t``.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.data.padding import PAD_INDEX
from repro.nn.attention import NEG_INF
from repro.utils.exceptions import ConfigurationError

__all__ = [
    "MaskType",
    "causal_history_mask",
    "objective_column_indicator",
    "build_pim",
]


class MaskType(IntEnum):
    """The three masking schemes compared in Table V."""

    CAUSAL = 1
    OBJECTIVE = 2
    PERSONALIZED = 3


def causal_history_mask(
    items: np.ndarray, history_weight: float = 0.0, dtype: "np.dtype | type" = np.float64
) -> np.ndarray:
    """Causal + padding additive ``dtype`` mask of shape ``(batch, length, length)``.

    * future positions (``k > j``) get :data:`NEG_INF`;
    * padding keys get :data:`NEG_INF` (real positions never attend to pads);
    * visible real history positions get ``history_weight`` (``w_h``).
    """
    items = np.asarray(items, dtype=np.int64)
    if items.ndim != 2:
        raise ConfigurationError(f"items must be a (batch, length) array, got {items.shape}")
    batch, length = items.shape
    future = np.triu(np.ones((length, length), dtype=bool), k=1)
    hidden = future[None, :, :] | (items == PAD_INDEX)[:, None, :]
    mask = np.full((batch, length, length), float(history_weight), dtype=dtype)
    np.copyto(mask, NEG_INF, where=hidden)
    return mask


def objective_column_indicator(length: int) -> np.ndarray:
    """Indicator ``(length, length)`` matrix of the objective-attention entries.

    Entry ``[j, length-1]`` is 1 for every ``j < length - 1`` — i.e. the
    positions for which the objective (last position) would normally be
    masked as "future" but is revealed by the PIM.
    """
    indicator = np.zeros((length, length), dtype=np.float64)
    if length >= 2:
        indicator[: length - 1, length - 1] = 1.0
    return indicator


def build_pim(
    items: np.ndarray,
    mask_type: MaskType = MaskType.PERSONALIZED,
    objective_weight: float = 1.0,
    history_weight: float = 0.0,
    impressionability: np.ndarray | float | None = None,
    dtype: "np.dtype | type" = np.float64,
) -> np.ndarray:
    """Build the full (non-differentiable) PIM as a NumPy array of ``dtype``.

    This is the reference construction used by tests, analysis and inference.
    During training the IRN module composes the same mask from
    :func:`causal_history_mask` and :func:`objective_column_indicator` as a
    :class:`~repro.nn.tensor.Tensor` expression so gradients reach the
    impressionability factor.

    Parameters
    ----------
    items:
        ``(batch, length)`` pre-padded item indices whose final column holds
        the objective item.
    mask_type:
        One of :class:`MaskType`.
    objective_weight:
        The ``w_t`` hyperparameter (Figure 7 sweeps it over {0, .25, .5, .75, 1}).
    history_weight:
        The ``w_h`` mask weight for visible history positions.
    impressionability:
        Per-sequence ``r_u`` values (scalar or ``(batch,)`` array); required
        for ``MaskType.PERSONALIZED``.
    dtype:
        The mask's dtype: an inference program's masks are built in the
        program's dtype, so no layer casts them.
    """
    items = np.asarray(items, dtype=np.int64)
    pim = causal_history_mask(items, history_weight=history_weight, dtype=dtype)
    batch, length = items.shape
    if mask_type == MaskType.CAUSAL or length < 2:
        return pim

    if mask_type == MaskType.OBJECTIVE:
        weights = np.full(batch, float(objective_weight))
    elif mask_type == MaskType.PERSONALIZED:
        if impressionability is None:
            raise ConfigurationError(
                "MaskType.PERSONALIZED requires the impressionability factor r_u"
            )
        weights = np.broadcast_to(
            np.asarray(impressionability, dtype=np.float64).reshape(-1), (batch,)
        ) * float(objective_weight)
    else:  # pragma: no cover - IntEnum exhausts the options
        raise ConfigurationError(f"unknown mask type {mask_type}")

    # Reveal the objective column to every preceding position with the
    # configured additive weight (overriding the causal NEG_INF).
    pim[:, : length - 1, length - 1] = weights[:, None]
    return pim
